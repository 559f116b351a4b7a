package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compactroute"
	"compactroute/client"
	"compactroute/internal/graph"
	"compactroute/internal/memhttp"
	"compactroute/internal/server"
)

func discardLogf(string, ...any) {}

// shardConfig is the one config every test shard shares — identical
// topology source and seed, so shards build byte-identical versions.
func shardConfig(n int) server.Config {
	return server.Config{
		Scheme: "fulltable", N: n, K: 2, Seed: 11, SFactor: 0.5,
		Workers: 4, Logf: discardLogf,
	}
}

// flaky wraps a shard handler with a kill switch: while down, every
// connection is hijacked and closed mid-request, which the client
// sees as a transport failure (not an API error). It also counts the
// route, stats, and healthz calls that reach the shard.
type flaky struct {
	h              http.Handler
	down           atomic.Bool
	routes         atomic.Uint64
	stats, healthz atomic.Uint64
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/route":
		f.routes.Add(1)
	case "/v1/stats":
		f.stats.Add(1)
	case "/v1/healthz":
		f.healthz.Add(1)
	}
	if f.down.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
		return
	}
	f.h.ServeHTTP(w, r)
}

// bootCluster starts nShards identical shards (each behind a flaky
// wrapper) and a front-door over them.
func bootCluster(t *testing.T, nShards, n int, healthEvery time.Duration) (*Cluster, []*server.Server, []*flaky) {
	t.Helper()
	return bootClusterWith(t, shardConfig(n), nShards, healthEvery)
}

// bootClusterWith is bootCluster with every shard started from cfg.
func bootClusterWith(t *testing.T, cfg server.Config, nShards int, healthEvery time.Duration) (*Cluster, []*server.Server, []*flaky) {
	t.Helper()
	urls := make([]string, nShards)
	servers := make([]*server.Server, nShards)
	wraps := make([]*flaky, nShards)
	for i := range urls {
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(t.Context())
		t.Cleanup(srv.Close)
		wraps[i] = &flaky{h: srv.Handler()}
		ts := httptest.NewServer(wraps[i])
		t.Cleanup(ts.Close)
		urls[i], servers[i] = ts.URL, srv
	}
	c, err := New(Options{Shards: urls, HealthEvery: healthEvery, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Close)
	return c, servers, wraps
}

// TestOwnerRendezvousProperties: ownership is deterministic, roughly
// balanced, and ejecting a shard moves ONLY that shard's names.
func TestOwnerRendezvousProperties(t *testing.T) {
	c, err := New(Options{
		Shards: []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"},
		Logf:   discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const names = 20000
	counts := make([]int, 4)
	owners := make([]int, names)
	for name := uint64(0); name < names; name++ {
		o := c.Owner(name * 2654435761)
		if o2 := c.Owner(name * 2654435761); o2 != o {
			t.Fatalf("Owner not deterministic: %d then %d", o, o2)
		}
		owners[name] = o
		counts[o]++
	}
	for i, n := range counts {
		if n < names/4/2 || n > names/4*2 {
			t.Fatalf("shard %d owns %d of %d names — rendezvous badly unbalanced: %v", i, n, names, counts)
		}
	}

	// Eject shard 2: its names redistribute, everyone else's stay put.
	c.shards[2].healthy.Store(false)
	moved := 0
	for name := uint64(0); name < names; name++ {
		o := c.Owner(name * 2654435761)
		if owners[name] == 2 {
			if o == 2 {
				t.Fatalf("name %d still owned by ejected shard", name)
			}
			moved++
			continue
		}
		if o != owners[name] {
			t.Fatalf("name %d moved from healthy shard %d to %d on unrelated ejection", name, owners[name], o)
		}
	}
	if moved == 0 {
		t.Fatal("ejection moved no names")
	}
}

// TestRoutesMatchSingleProcess: every front-door answer — same-owner
// or cross-owner pair — is byte-equal to the single-process answer,
// stretch included.
func TestRoutesMatchSingleProcess(t *testing.T) {
	c, servers, _ := bootCluster(t, 2, 90, time.Hour)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	fc := client.New(front.URL)

	solo := servers[0] // shards are identical; shard 0 IS the single-process answer
	g := solo.Scheme().Network().Graph()
	ctx := context.Background()
	crossOwner := 0
	for u := 0; u < g.N(); u += 7 {
		for v := 1; v < g.N(); v += 11 {
			src, dst := g.Name(compactroute.NodeID(u)), g.Name(compactroute.NodeID(v))
			got, err := fc.RouteByName(ctx, src, dst)
			if err != nil {
				t.Fatalf("front route %d→%d: %v", src, dst, err)
			}
			want, err := solo.Scheme().RouteByName(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if got.Delivered != want.Delivered || got.Cost != want.Cost ||
				got.Hops != want.Hops || got.HeaderBits != want.HeaderBits ||
				got.ShortestCost != want.ShortestCost {
				t.Fatalf("route %d→%d diverged: front %+v solo %+v", src, dst, got, want)
			}
			// The wire carries stretch 0 for the degenerate self-route
			// (no shortest cost to divide by); Result.Stretch() says 1.
			if want.ShortestCost > 0 && got.Stretch != want.Stretch() {
				t.Fatalf("route %d→%d stretch %v, solo %v", src, dst, got.Stretch, want.Stretch())
			}
			if c.Owner(src) != c.Owner(dst) {
				crossOwner++
			}
		}
	}
	if crossOwner == 0 {
		t.Fatal("sample holds no cross-owner pair")
	}
	if st := c.Stats(); st.Proxied != st.Routes || st.Scattered != 0 {
		t.Fatalf("route accounting off: %+v", st)
	}

	// 422 passes through the front-door untouched.
	if _, err := fc.RouteByName(ctx, 0xFFFFFFFF, g.Name(0)); !client.IsStatus(err, 422) {
		t.Fatalf("unknown src through front-door: %v, want 422", err)
	}
}

// TestOneShardCallPerRoute: every front-door route is exactly one
// /v1/route call, on the owner of its source, whether or not the
// destination has the same owner.
func TestOneShardCallPerRoute(t *testing.T) {
	c, servers, wraps := bootCluster(t, 3, 60, time.Hour)
	g := servers[0].Scheme().Network().Graph()
	ctx := context.Background()
	calls := func() []uint64 {
		out := make([]uint64, len(wraps))
		for i, w := range wraps {
			out[i] = w.routes.Load()
		}
		return out
	}
	var routes, sameOwner, crossOwner uint64
	for u := 0; u < g.N(); u += 3 {
		for v := 1; v < g.N(); v += 13 {
			src, dst := g.Name(compactroute.NodeID(u)), g.Name(compactroute.NodeID(v))
			owner := c.Owner(src)
			if owner == c.Owner(dst) {
				sameOwner++
			} else {
				crossOwner++
			}
			before := calls()
			if _, err := c.RouteByName(ctx, src, dst); err != nil {
				t.Fatalf("route %d→%d: %v", src, dst, err)
			}
			routes++
			for i, n := range calls() {
				want := before[i]
				if i == owner {
					want++
				}
				if n != want {
					t.Fatalf("route %d→%d (src owner %d): shard %d took %d route calls, want %d",
						src, dst, owner, i, n-before[i], want-before[i])
				}
			}
		}
	}
	if sameOwner == 0 || crossOwner == 0 {
		t.Fatalf("sample too thin: %d same-owner, %d cross-owner pairs", sameOwner, crossOwner)
	}
	var total uint64
	for _, w := range wraps {
		total += w.routes.Load()
	}
	if total != routes {
		t.Fatalf("%d routes made %d shard route calls", routes, total)
	}
	if st := c.Stats(); st.Routes != routes || st.Proxied != routes || st.Scattered != 0 {
		t.Fatalf("after %d routes: %+v", routes, st)
	}
}

// TestFrontDoorRouteAllocs pins a front-door read's allocations:
// Cluster.Handler() into a reused writer, with each shard served in
// memory (memhttp), so the count covers the front-door, its shard
// client, the in-memory transport and the shard's handler, and
// nothing else (50 when both tiers reflected the answer, 28 while
// each tier allocated its Content-Type value, 26 while each allocated
// its status recorder).
func TestFrontDoorRouteAllocs(t *testing.T) {
	if memhttp.RaceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	cfg := server.Config{Scheme: compactroute.KindPaper, N: 256, K: 3, Seed: 5, Logf: discardLogf}
	var urls []string
	var handlers []http.Handler
	var g *graph.Graph
	for i := range 2 {
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		g = srv.Scheme().Network().Graph()
		urls = append(urls, fmt.Sprintf("http://shard%d.test", i))
		handlers = append(handlers, srv.Handler())
	}
	c, err := New(Options{Shards: urls, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range c.shards {
		s.c.HTTP = memhttp.Client(handlers[i])
	}
	h := c.Handler()
	reqs := make([]*http.Request, 256)
	for q := range reqs {
		src, dst := g.Name(compactroute.NodeID(q)), g.Name(compactroute.NodeID((q*131+17)%256))
		reqs[q] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/route?src=%d&dst=%d", src, dst), nil)
	}
	var w memhttp.Writer
	q := 0
	allocs := testing.AllocsPerRun(1000, func() {
		q++
		w.Reset()
		h.ServeHTTP(&w, reqs[q%len(reqs)])
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	})
	if allocs > 24 {
		t.Fatalf("front-door read: %.2f allocations, want at most 24", allocs)
	}
}

// TestClusterSkewDetectionAndConvergence: a shard rebuilt out-of-band
// (behind the front-door's back) answers from a version the tier does
// not serve, so every route it owns — same-owner or cross-owner —
// refuses with 409 while its peer keeps serving; one coordinated
// rebuild converges the cluster again.
func TestClusterSkewDetectionAndConvergence(t *testing.T) {
	c, servers, _ := bootCluster(t, 2, 60, time.Hour)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	fc := client.New(front.URL)
	ctx := context.Background()
	g := servers[0].Scheme().Network().Graph()

	// The first answer fixes the tier's version (no cut-over has run).
	if res, err := fc.RouteByName(ctx, g.Name(0), g.Name(1)); err != nil || res.Version == nil || *res.Version != 0 {
		t.Fatalf("first route: %+v, %v (want version 0)", res, err)
	}
	// One mutation through the front-door: both logs get it.
	mut := compactroute.MutSetWeight(g.Name(0), firstNeighborName(servers[0]), 2)
	if _, err := fc.Mutate(ctx, mut); err != nil {
		t.Fatal(err)
	}
	// Shard 0 rebuilds OUT-OF-BAND: the cluster now straddles
	// versions 1 and 0.
	if _, err := servers[0].Rebuild(ctx); err != nil {
		t.Fatal(err)
	}

	// Routes owned by shard 0 answer from version 1: skew, 409, on
	// same-owner and cross-owner pairs alike. Shard 1's still serve.
	var skewed, served [2]int // by same-owner (0) / cross-owner (1)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v += 5 {
			src, dst := g.Name(compactroute.NodeID(u)), g.Name(compactroute.NodeID(v))
			cross := 0
			if c.Owner(src) != c.Owner(dst) {
				cross = 1
			}
			res, err := fc.RouteByName(ctx, src, dst)
			if c.Owner(src) == 0 {
				if !client.IsStatus(err, http.StatusConflict) {
					t.Fatalf("route %d→%d owned by the rebuilt shard: %v, want 409", src, dst, err)
				}
				skewed[cross]++
				continue
			}
			if err != nil || res.Version == nil || *res.Version != 0 {
				t.Fatalf("route %d→%d owned by the in-step shard: %+v, %v", src, dst, res, err)
			}
			served[cross]++
		}
	}
	if skewed[0] == 0 || skewed[1] == 0 || served[0] == 0 || served[1] == 0 {
		t.Fatalf("sample too thin: skewed %v served %v (same-owner, cross-owner)", skewed, served)
	}
	if got, want := c.Stats().SkewObserved, uint64(skewed[0]+skewed[1]); got != want {
		t.Fatalf("skews counted %d, want %d", got, want)
	}

	// One coordinated rebuild converges: shard 0 stages its serving
	// version (nothing pending), shard 1 stages the same ID from its
	// log, and both commit.
	v, _, err := c.Rebuild(ctx)
	if err != nil {
		t.Fatalf("converging rebuild: %v", err)
	}
	if v.ID != 1 {
		t.Fatalf("converged at version %d, want 1", v.ID)
	}
	for i, s := range servers {
		if sv, _ := s.Version(); sv.ID != 1 {
			t.Fatalf("shard %d at version %d after convergence", i, sv.ID)
		}
	}
	// Every route flows again, from the committed version.
	for u := 0; u < g.N(); u += 4 {
		res, err := fc.RouteByName(ctx, g.Name(compactroute.NodeID(u)), g.Name(1))
		if err != nil || res.Version == nil || *res.Version != 1 {
			t.Fatalf("route after convergence: %+v, %v", res, err)
		}
	}
}

// TestEjectionFailoverAndReadmission: a shard dying mid-traffic is
// ejected and its queries fail over; it is re-admitted once it both
// answers again and matches a healthy peer's log — and held out
// forever when it missed mutations.
func TestEjectionFailoverAndReadmission(t *testing.T) {
	const healthEvery = 20 * time.Millisecond
	c, servers, wraps := bootCluster(t, 2, 60, healthEvery)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	fc := client.New(front.URL)
	ctx := context.Background()
	g := servers[0].Scheme().Network().Graph()

	// Kill shard 1 and push enough routes that some hash to it: every
	// one must still succeed (failover), and the shard must end up
	// ejected.
	wraps[1].down.Store(true)
	for u := 0; u < 40; u++ {
		src, dst := g.Name(compactroute.NodeID(u)), g.Name(compactroute.NodeID((u+7)%g.N()))
		if _, err := fc.RouteByName(ctx, src, dst); err != nil {
			t.Fatalf("route %d→%d during shard death: %v", src, dst, err)
		}
	}
	st := c.Stats()
	if st.Healthy != 1 || st.Ejections == 0 || st.Failovers == 0 {
		t.Fatalf("after shard death: %+v", st)
	}

	// Revive it unchanged: the health loop re-admits (logs match).
	wraps[1].down.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for c.healthyCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("revived shard never re-admitted: %+v", c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.Stats().Readmissions == 0 {
		t.Fatal("readmission not counted")
	}

	// Kill it again, mutate through the front-door (only shard 0 logs
	// it), revive: the divergent shard must STAY out.
	wraps[1].down.Store(true)
	if _, err := fc.RouteByName(ctx, g.Name(1), g.Name(2)); err != nil {
		t.Fatalf("route during second death: %v", err)
	}
	// Drive routes until the ejection lands (the first may have hit
	// only shard 0's names).
	deadline = time.Now().Add(10 * time.Second)
	for c.healthyCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second ejection never happened: %+v", c.Stats())
		}
		if _, err := fc.RouteByName(ctx, g.Name(1), g.Name(2)); err != nil {
			t.Fatalf("route during second death: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	mut := compactroute.MutSetWeight(g.Name(0), firstNeighborName(servers[0]), 3)
	if _, err := fc.Mutate(ctx, mut); err != nil {
		t.Fatal(err)
	}
	wraps[1].down.Store(false)
	// Give the health loop several probe windows: the shard answers,
	// but its log is short, so it must not come back.
	time.Sleep(12 * healthEvery)
	if got := c.healthyCount(); got != 1 {
		t.Fatalf("divergent shard re-admitted (healthy=%d)", got)
	}
}

// TestShardKillWithPooledConnections runs on client.New's own
// transport over real listeners. A shard dies while the front-door
// holds idle keep-alive connections to it: its listener and every
// connection close, as a killed process's sockets do. The next read it
// owns ejects it and fails over. Revived on the same address, it is
// re-admitted, and the front-door's other stale connections to it cost
// no read and no second ejection: each fails before any answer begins,
// so the request is sent again on a fresh connection.
func TestShardKillWithPooledConnections(t *testing.T) {
	const held = 3 // concurrent reads to shard 1, so as many connections
	var arrived sync.WaitGroup
	var hold atomic.Bool
	var open atomic.Int64   // shard 1's open connections
	var routes atomic.Int64 // route calls shard 1 served
	handlers := make([]http.Handler, 2)
	urls := make([]string, 2)
	serve := func(i int, addr string) *http.Server {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: handlers[i]}
		if i == 1 {
			hs.ConnState = func(_ net.Conn, st http.ConnState) {
				switch st {
				case http.StateNew:
					open.Add(1)
				case http.StateClosed, http.StateHijacked:
					open.Add(-1)
				}
			}
		}
		go hs.Serve(ln)
		t.Cleanup(func() { hs.Close() })
		urls[i] = "http://" + ln.Addr().String()
		return hs
	}
	var g *graph.Graph
	for i := range 2 {
		srv, err := server.New(shardConfig(60))
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(t.Context())
		t.Cleanup(srv.Close)
		g = srv.Scheme().Network().Graph()
		handlers[i] = srv.Handler()
	}
	// While hold is set, shard 1 keeps each read until all held reads
	// are in, so the front-door has one connection per read in use.
	h1 := handlers[1]
	handlers[1] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/route" {
			routes.Add(1)
			if hold.Load() {
				arrived.Done()
				arrived.Wait()
			}
		}
		h1.ServeHTTP(w, r)
	})
	serve(0, "127.0.0.1:0")
	shard1 := serve(1, "127.0.0.1:0")
	c, err := New(Options{Shards: urls, HealthEvery: time.Hour, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Close)
	ctx := context.Background()

	var owned []uint64 // sources shard 1 owns while both are up
	for u := 0; u < g.N() && len(owned) < held; u++ {
		if c.Owner(g.Name(compactroute.NodeID(u))) == 1 {
			owned = append(owned, g.Name(compactroute.NodeID(u)))
		}
	}
	if len(owned) < held {
		t.Fatalf("shard 1 owns only %d sources", len(owned))
	}
	dst := g.Name(compactroute.NodeID(g.N() - 1))
	// burst reads from every owned source at once, held at shard 1.
	burst := func(when string) {
		t.Helper()
		arrived.Add(held)
		hold.Store(true)
		var wg sync.WaitGroup
		for _, src := range owned {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.RouteByName(ctx, src, dst); err != nil {
					t.Errorf("read %s: %v", when, err)
				}
			}()
		}
		wg.Wait()
		hold.Store(false)
		if t.Failed() {
			t.FailNow()
		}
	}
	burst("before the kill")
	if n := open.Load(); n != held {
		t.Fatalf("front-door holds %d connections to shard 1, want %d", n, held)
	}

	// Kill shard 1: the next read it owns ejects it and fails over.
	if err := shard1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RouteByName(ctx, owned[0], dst); err != nil {
		t.Fatalf("read owned by the dead shard: %v", err)
	}
	if st := c.Stats(); st.Healthy != 1 || st.Ejections != 1 || st.Failovers != 1 {
		t.Fatalf("after the kill: %+v", st)
	}

	// Revive it on the same address. One health pass re-admits it (its
	// log never moved) over a stale connection and a retry; a burst
	// then takes the last stale connection and two more.
	serve(1, strings.TrimPrefix(urls[1], "http://"))
	c.shards[1].fails.Store(0)
	c.shards[1].nextProbe.Store(0)
	c.probeAll()
	if st := c.Stats(); st.Healthy != 2 || st.Readmissions != 1 {
		t.Fatalf("after the revival: %+v", st)
	}
	before := routes.Load()
	burst("after the revival")
	if st := c.Stats(); st.Ejections != 1 || st.Failovers != 1 {
		t.Fatalf("stale connections cost an ejection or a failover: %+v", st)
	}
	if n := routes.Load() - before; n != held {
		t.Fatalf("revived shard served %d of the %d reads it owns", n, held)
	}
}

// TestCallerCancellationIsNotShardFault: a caller abandoning its own
// request (disconnect, client-side timeout) must not eject shards,
// and the log-changing fan-outs must run to completion anyway —
// otherwise one disconnect mid /v1/route empties the cluster, and one
// mid /v1/mutate forks the shards' logs.
func TestCallerCancellationIsNotShardFault(t *testing.T) {
	c, servers, _ := bootCluster(t, 2, 60, time.Hour)
	g := servers[0].Scheme().Network().Graph()
	gone, cancel := context.WithCancel(context.Background())
	cancel() // the caller has already left

	// Routes with the caller gone: error back, nothing ejected, no
	// failover storm.
	for u := 0; u < 10; u++ {
		src, dst := g.Name(compactroute.NodeID(u)), g.Name(compactroute.NodeID((u+7)%g.N()))
		if _, err := c.RouteByName(gone, src, dst); err == nil {
			t.Fatalf("route %d→%d with canceled caller: no error", src, dst)
		}
	}
	if st := c.Stats(); st.Healthy != 2 || st.Ejections != 0 || st.Failovers != 0 {
		t.Fatalf("caller cancellation ejected shards: %+v", st)
	}

	// A mutate fan-out with the caller gone still applies everywhere:
	// the fan-out is detached, so the logs cannot fork.
	mut := compactroute.MutSetWeight(g.Name(0), firstNeighborName(servers[0]), 2)
	if _, err := c.Mutate(gone, mut); err != nil {
		t.Fatalf("detached mutate fan-out: %v", err)
	}
	ctx := context.Background()
	for i, url := range c.ShardURLs() {
		hz, err := client.New(url).Healthz(ctx)
		if err != nil || hz.Mutations != 1 {
			t.Fatalf("shard %d log after detached mutate: %d mutations, err %v", i, hz.Mutations, err)
		}
	}

	// A coordinated rebuild with the caller gone still cuts over both
	// shards to the same version.
	v, _, err := c.Rebuild(gone)
	if err != nil {
		t.Fatalf("detached rebuild: %v", err)
	}
	for i, s := range servers {
		if sv, _ := s.Version(); sv.ID != v.ID {
			t.Fatalf("shard %d at version %d after detached rebuild, want %d", i, sv.ID, v.ID)
		}
	}
	if st := c.Stats(); st.Healthy != 2 || st.Ejections != 0 {
		t.Fatalf("detached coordination ejected shards: %+v", st)
	}
}

// TestRebuildAllCommitsFailIsAnError: when every staged shard fails
// its commit (all ejected), Rebuild must report failure — not count a
// swap and hand back a version no shard is serving.
func TestRebuildAllCommitsFailIsAnError(t *testing.T) {
	urls := make([]string, 2)
	servers := make([]*server.Server, 2)
	for i := range urls {
		srv, err := server.New(shardConfig(60))
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(t.Context())
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(&swapKiller{h: srv.Handler()})
		t.Cleanup(ts.Close)
		urls[i], servers[i] = ts.URL, srv
	}
	c, err := New(Options{Shards: urls, HealthEvery: time.Hour, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	_, _, err = c.Rebuild(context.Background())
	if !errors.Is(err, ErrNoHealthyShard) {
		t.Fatalf("rebuild with every commit failing: %v, want ErrNoHealthyShard", err)
	}
	st := c.Stats()
	if st.Swaps != 0 {
		t.Fatalf("failed cut-over counted as a swap: %+v", st)
	}
	if st.Healthy != 0 {
		t.Fatalf("shards that failed their commit still in rotation: %+v", st)
	}
}

// swapKiller passes every request through except POST /v1/swap, whose
// connection it kills mid-request: staging succeeds, committing fails.
type swapKiller struct {
	h http.Handler
}

func (k *swapKiller) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/swap") {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
		return
	}
	k.h.ServeHTTP(w, r)
}

// TestProbeDeadlinePerShard: one health pass gives every shard's
// probe its own deadline. A shard whose healthz hangs is ejected, and
// the healthy shard probed after it stays in — it does not inherit an
// expired context from the slow one.
func TestProbeDeadlinePerShard(t *testing.T) {
	hang := http.NewServeMux()
	hang.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // until the prober gives up
	})
	a := httptest.NewServer(hang)
	defer a.Close()
	srv, err := server.New(shardConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	b := httptest.NewServer(srv.Handler())
	defer b.Close()

	c, err := New(Options{Shards: []string{a.URL, b.URL}, HealthEvery: 100 * time.Millisecond, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.probeAll() // shards are probed in order: a hangs first, then b
	if c.shards[0].healthy.Load() {
		t.Fatal("hung shard survived its probe")
	}
	if !c.shards[1].healthy.Load() {
		t.Fatalf("healthy shard ejected after a slow peer's probe: %+v", c.Stats())
	}
}

// firstNeighborName returns the name of some neighbor of node 0, so
// tests can issue a valid setweight mutation.
func firstNeighborName(s *server.Server) uint64 {
	g := s.Scheme().Network().Graph()
	var name uint64
	g.Neighbors(0, func(e graph.Edge) bool {
		name = g.Name(e.To)
		return false
	})
	return name
}
