package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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
)

// buildDynamic boots the dynamic serving surface over a fresh
// generated topology, exactly as `routed -scheme <kind>` does, with
// the background rebuild worker armed.
func buildDynamic(t *testing.T, kind string, n int, rebuildAfter int) (*Server, *compactroute.Network) {
	t.Helper()
	srv, err := New(Config{
		Scheme: kind, N: n, K: 2, Seed: 11, SFactor: 0.5,
		Workers: 4, RebuildAfter: rebuildAfter,
		Logf: discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(t.Context())
	t.Cleanup(srv.Close)
	// The base version's network — the starting point for replays.
	return srv, srv.Scheme().Network()
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	resp, err := http.Post(ts.URL+path, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestStaticServerRejectsMutations: file-loaded schemes answer 409 on
// every dynamic endpoint.
func TestStaticServerRejectsMutations(t *testing.T) {
	srv, _ := buildStatic(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/mutate", "/v1/rebuild", "/v1/swap"} {
		resp, body := postJSON(t, ts, path, compactroute.MutSetWeight(1, 2, 3))
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s on static scheme: %d %s", path, resp.StatusCode, body)
		}
	}
}

// TestMutateValidation: bad JSON is 400, a semantically invalid
// mutation is 422 and atomically rejected.
func TestMutateValidation(t *testing.T) {
	srv, net := buildDynamic(t, "fulltable", 60, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/mutate", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", resp.StatusCode)
	}
	g := net.Graph()
	// Batch with one invalid member: nothing applies.
	resp, body := postJSON(t, ts, "/v1/mutate", []compactroute.Mutation{
		compactroute.MutAddEdge(g.Name(0), g.Name(1), 2),
		compactroute.MutAddEdge(0xdeaddead, g.Name(1), 2), // unknown node
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid batch: %d %s", resp.StatusCode, body)
	}
	if got := srv.dyn.Pending(); got != 0 {
		t.Fatalf("invalid batch applied %d mutations", got)
	}
	// A valid single mutation (bare object, not array) applies.
	resp, body = postJSON(t, ts, "/v1/mutate", compactroute.MutSetWeight(g.Name(0), firstNeighbor(net), 3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid mutate: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Applied int    `json:"applied"`
		Seq     uint64 `json:"seq"`
		Pending uint64 `json:"pending"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Applied != 1 || out.Seq != 1 || out.Pending != 1 {
		t.Fatalf("mutate response %+v", out)
	}
}

func firstNeighbor(net *compactroute.Network) uint64 {
	g := net.Graph()
	var name uint64
	g.Neighbors(0, func(e graph.Edge) bool {
		name = g.Name(e.To)
		return false
	})
	return name
}

// TestEndToEndChurn is the acceptance scenario: ≥100 mutations arrive
// over POST /v1/mutate while concurrent clients replay queries and
// rebuilds are triggered over HTTP. Zero requests may fail, the swap
// pause must stay under a millisecond, and after the final swap the
// served routes must be bit-identical to a cold build of the final
// graph.
func TestEndToEndChurn(t *testing.T) {
	const nodes = 110
	srv, net := buildDynamic(t, "fulltable", nodes, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	g := net.Graph()
	muts, err := compactroute.GenerateMutations(net, 120, 21)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent query replay over base names (present in every
	// version): every response must be 200 and delivered.
	stop := make(chan struct{})
	var queries, failures atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := g.Name(compactroute.NodeID((w*13 + i) % nodes))
				dst := g.Name(compactroute.NodeID((w*29 + i*7 + 1) % nodes))
				resp, err := client.Get(fmt.Sprintf("%s/v1/route?src=%d&dst=%d", ts.URL, src, dst))
				if err != nil {
					failures.Add(1)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"delivered":true`)) {
					t.Logf("query %d→%d: %d %s", src, dst, resp.StatusCode, body)
					failures.Add(1)
					return
				}
				queries.Add(1)
			}
		}(w)
	}

	// Churn: 120 mutations in batches of 10, a synchronous rebuild
	// every 3 batches (4 rebuilds total).
	applied := 0
	for b := 0; b < 12; b++ {
		resp, body := postJSON(t, ts, "/v1/mutate", muts[b*10:(b+1)*10])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate batch %d: %d %s", b, resp.StatusCode, body)
		}
		applied += 10
		if (b+1)%3 == 0 {
			resp, body := postJSON(t, ts, "/v1/rebuild?wait=1", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("rebuild after batch %d: %d %s", b, resp.StatusCode, body)
			}
			var v compactroute.VersionInfo
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatal(err)
			}
			if v.MutTo != uint64(applied) {
				t.Fatalf("rebuild sealed at %d, want %d", v.MutTo, applied)
			}
		}
	}
	// Let the replay observe the final version, then stop it.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d churn-time queries failed", failures.Load(), queries.Load()+failures.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed during churn")
	}

	// The daemon reports the final version and a sub-millisecond pause.
	resp, body := postJSON(t, ts, "/v1/rebuild?wait=1", nil) // no-op: nothing pending
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final rebuild: %d %s", resp.StatusCode, body)
	}
	st := srv.Stats()
	if st.Dynamic == nil || st.Dynamic.Version != 4 || st.Dynamic.Pending != 0 || st.Dynamic.Swaps != 4 {
		t.Fatalf("dynamic stats: %+v", st.Dynamic)
	}
	if st.Dynamic.Mutations != 120 {
		t.Fatalf("dynamic stats log length %d, want 120", st.Dynamic.Mutations)
	}
	if st.Dynamic.MaxPauseNs <= 0 || st.Dynamic.MaxPauseNs >= int64(time.Millisecond) {
		t.Fatalf("max swap pause %v, want (0, 1ms)", time.Duration(st.Dynamic.MaxPauseNs))
	}

	// Post-swap routes are bit-identical to a cold build of the final
	// graph: same delivery, cost, hops, and header bits for a full
	// strided sample, queried over HTTP against the live daemon.
	finalNet, err := compactroute.ReplayNetwork(net, muts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := compactroute.Build(finalNet, compactroute.Config{Kind: "fulltable", K: 2, Seed: 11, SFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fg := finalNet.Graph()
	hc := ts.Client()
	checked := 0
	for s := 0; s < fg.N(); s += 5 {
		for d := 1; d < fg.N(); d += 7 {
			src, dst := fg.Name(compactroute.NodeID(s)), fg.Name(compactroute.NodeID(d))
			want, err := cold.RouteByName(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := hc.Get(fmt.Sprintf("%s/v1/route?src=%d&dst=%d", ts.URL, src, dst))
			if err != nil {
				t.Fatal(err)
			}
			var got client.Route
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got.Delivered != want.Delivered || got.Cost != want.Cost ||
				got.Hops != want.Hops || got.HeaderBits != want.HeaderBits {
				t.Fatalf("route %d→%d diverged from cold build: live %+v cold %+v", src, dst, got, want)
			}
			if got.Version == nil || *got.Version != 4 {
				t.Fatalf("route %d→%d version %v, want 4", src, dst, got.Version)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no routes checked against the cold build")
	}
}

// TestRebuildWaitParamIsBoolean: ?wait=0 (and garbage) takes the
// async 202 branch with an application/json body; only an affirmative
// value blocks for the outcome.
func TestRebuildWaitParamIsBoolean(t *testing.T) {
	srv, _ := buildDynamic(t, "fulltable", 50, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, q := range []string{"", "?wait=0", "?wait=false", "?wait=nope", "?stage=0"} {
		resp, _ := postJSON(t, ts, "/v1/rebuild"+q, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("rebuild%s: %d, want 202", q, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("rebuild%s content type %q", q, ct)
		}
	}
	resp, body := postJSON(t, ts, "/v1/rebuild?wait=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild?wait=1: %d %s", resp.StatusCode, body)
	}
}

// TestAutoRebuild: RebuildAfter triggers the background rebuild once
// the pending backlog crosses the threshold.
func TestAutoRebuild(t *testing.T) {
	srv, net := buildDynamic(t, "fulltable", 60, 8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	muts, err := compactroute.GenerateMutations(net, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts, "/v1/mutate", muts); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v := srv.dyn.Version(); v.ID >= 1 && srv.dyn.Pending() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto rebuild never happened (version %d, pending %d)",
				srv.dyn.Version().ID, srv.dyn.Pending())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDynamicHealthz: the health endpoint reports the live version and
// the log length the cluster's re-admission check compares.
func TestDynamicHealthz(t *testing.T) {
	srv, net := buildDynamic(t, "tz", 50, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if resp, body := postJSON(t, ts, "/v1/mutate", compactroute.MutSetWeight(net.Graph().Name(0), firstNeighbor(net), 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h["dynamic"] != true || h["version"] != float64(0) || h["kind"] != "tz" {
		t.Fatalf("healthz: %+v", h)
	}
	if h["pending"] != float64(1) || h["mutations"] != float64(1) {
		t.Fatalf("healthz log fields: %+v", h)
	}
}

// TestStageAndSwap drives the two-phase cut-over over HTTP: stage
// builds without publishing, a wrong commit is a 409, the right commit
// publishes, and committing the serving ID again is idempotent.
func TestStageAndSwap(t *testing.T) {
	srv, net := buildDynamic(t, "fulltable", 60, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	g := net.Graph()

	if resp, body := postJSON(t, ts, "/v1/mutate", compactroute.MutSetWeight(g.Name(0), firstNeighbor(net), 4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}

	// Stage: the expensive half runs, nothing publishes.
	resp, body := postJSON(t, ts, "/v1/rebuild?stage=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stage: %d %s", resp.StatusCode, body)
	}
	var staged compactroute.VersionInfo
	if err := json.Unmarshal(body, &staged); err != nil {
		t.Fatal(err)
	}
	if staged.ID != 1 {
		t.Fatalf("staged version %d, want 1", staged.ID)
	}
	if v, _ := srv.Version(); v.ID != 0 {
		t.Fatalf("stage published: serving %d", v.ID)
	}
	st := srv.Stats()
	if st.Dynamic.Staged == nil || *st.Dynamic.Staged != 1 {
		t.Fatalf("stats staged = %v, want 1", st.Dynamic.Staged)
	}

	// Committing the wrong ID is version skew: 409, serving untouched.
	resp, body = postJSON(t, ts, "/v1/swap", map[string]uint64{"version": 7})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("swap wrong id: %d %s", resp.StatusCode, body)
	}
	if v, _ := srv.Version(); v.ID != 0 {
		t.Fatalf("failed swap published: serving %d", v.ID)
	}

	// Committing the staged ID publishes it.
	resp, body = postJSON(t, ts, "/v1/swap", map[string]uint64{"version": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap: %d %s", resp.StatusCode, body)
	}
	if v, _ := srv.Version(); v.ID != 1 {
		t.Fatalf("serving %d after swap, want 1", v.ID)
	}
	// Idempotent retry of the serving ID.
	resp, body = postJSON(t, ts, "/v1/swap", map[string]uint64{"version": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent swap: %d %s", resp.StatusCode, body)
	}
	// A commit with nothing staged and a foreign ID stays 409.
	resp, body = postJSON(t, ts, "/v1/swap", map[string]uint64{"version": 9})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("swap foreign id: %d %s", resp.StatusCode, body)
	}
	// Missing version field: caller error.
	resp, body = postJSON(t, ts, "/v1/swap", map[string]string{"nope": "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("swap without version: %d %s", resp.StatusCode, body)
	}
}

// TestPoolRouteAllocs pins a shard read's allocations on a dynamic
// paper server with no faults. Below the handler, the pool, the repair
// layer and pinning the answer's version add nothing to the facade
// walk's own two (the header and the search state): the repair layer
// takes the pathless walk while nothing is down. Through
// Server.Handler() into a reused writer, a read adds nothing more:
// the observability boundary's status recorder is pooled and the
// content-type header value is one shared slice (3 while each request
// allocated its recorder).
func TestPoolRouteAllocs(t *testing.T) {
	srv, err := New(Config{Scheme: compactroute.KindPaper, N: 256, K: 3, Seed: 5, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	g := srv.Scheme().Network().Graph()
	ctx := context.Background()
	pair := func(q int) (uint64, uint64) {
		return g.Name(compactroute.NodeID(q % 256)), g.Name(compactroute.NodeID((q*131 + 17) % 256))
	}
	h := srv.Handler()
	reqs := make([]*http.Request, 256)
	for q := range reqs {
		src, dst := pair(q)
		reqs[q] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/route?src=%d&dst=%d", src, dst), nil)
	}
	var w memhttp.Writer
	for _, read := range []struct {
		name  string
		max   float64
		route func(q int) error
	}{
		{"Pool.Route", 2, func(q int) error {
			src, dst := pair(q)
			_, err := srv.pool.Route(ctx, src, dst)
			return err
		}},
		{"routeVersioned", 2, func(q int) error {
			src, dst := pair(q)
			_, _, err := srv.routeVersioned(ctx, src, dst)
			return err
		}},
		{"Handler", 2, func(q int) error {
			w.Reset()
			h.ServeHTTP(&w, reqs[q%len(reqs)])
			if w.Code != http.StatusOK {
				return fmt.Errorf("status %d: %s", w.Code, w.Body)
			}
			return nil
		}},
	} {
		if memhttp.RaceEnabled && read.name == "Handler" {
			continue // the race detector drops WriteRoute's pooled buffers at random
		}
		q := 0
		allocs := testing.AllocsPerRun(1000, func() {
			q++
			if err := read.route(q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > read.max {
			t.Fatalf("%s: %.2f allocations per route, want at most %v", read.name, allocs, read.max)
		}
	}
}
