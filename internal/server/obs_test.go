package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"compactroute"
	"compactroute/internal/obs"
)

// scrapeMetrics fetches /v1/metrics and insists the body parses under
// the strict exposition-format parser — the pin behind the CI smoke's
// scrape check.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]*obs.ParsedFamily {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/v1/metrics content type %q", ct)
	}
	fams, err := obs.ParseText(string(body))
	if err != nil {
		t.Fatalf("/v1/metrics is not valid exposition text: %v\n%s", err, body)
	}
	return fams
}

// pointKey identifies one series within a family across scrapes.
func pointKey(p obs.ParsedPoint) string {
	return fmt.Sprintf("%v", p.Labels)
}

// TestMetricsEndpointParsesWithMonotonicCounters pins the scrape
// contract: the body is strict Prometheus text on every scrape, the
// advertised family set is present, and no counter ever decreases
// between scrapes.
func TestMetricsEndpointParsesWithMonotonicCounters(t *testing.T) {
	srv, net := buildDynamic(t, "tz", 80, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	g := net.Graph()

	route := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			u := g.Name(compactroute.NodeID(i % net.N()))
			v := g.Name(compactroute.NodeID((i*7 + 1) % net.N()))
			resp, err := http.Get(fmt.Sprintf("%s/v1/route?src=%d&dst=%d", ts.URL, u, v))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	route(8)
	// A fault round-trip so the event journal has recorded kinds — an
	// empty journal renders no samples and would hide the family.
	for _, m := range []compactroute.Mutation{
		compactroute.MutFailNode(g.Name(1)), compactroute.MutRecoverNode(g.Name(1)),
	} {
		if resp, body := postJSON(t, ts, "/v1/mutate", m); resp.StatusCode != http.StatusOK {
			t.Fatalf("fault mutation: %d %s", resp.StatusCode, body)
		}
	}
	first := scrapeMetrics(t, ts)
	for _, name := range []string{
		obs.MetricRequestsTotal, obs.MetricRequestLatency,
		obs.MetricRequestLatencyWindow, obs.MetricRouteStretch,
		obs.MetricPoolRequestsTotal, obs.MetricPoolWorkers, obs.MetricTopologyVersion,
		obs.MetricSwapPauseSeconds, obs.MetricRebuildWallSeconds,
		obs.MetricFaultDownNodes, obs.MetricTracesSampledTotal,
		obs.MetricEventsTotal,
	} {
		if first[name] == nil {
			t.Errorf("scrape missing family %s", name)
		}
	}

	route(16)
	second := scrapeMetrics(t, ts)
	for name, f1 := range first {
		if f1.Type != "counter" {
			continue
		}
		f2 := second[name]
		if f2 == nil {
			t.Errorf("counter family %s vanished on the second scrape", name)
			continue
		}
		after := make(map[string]float64, len(f2.Points))
		for _, p := range f2.Points {
			after[pointKey(p)] = p.Value
		}
		for _, p := range f1.Points {
			v2, ok := after[pointKey(p)]
			if !ok {
				t.Errorf("%s%v vanished on the second scrape", name, p.Labels)
				continue
			}
			if v2 < p.Value {
				t.Errorf("counter %s%v went backwards: %v → %v", name, p.Labels, p.Value, v2)
			}
		}
	}
	if a, b := first[obs.MetricPoolRequestsTotal].Points[0].Value, second[obs.MetricPoolRequestsTotal].Points[0].Value; b < a+16 {
		t.Errorf("pool requests counter %v → %v, want at least +16", a, b)
	}
}

// TestStatsSnapshotConsistentUnderChurn hammers the serving tier with
// concurrent routes, mutations, rebuilds, and hot swaps while reading
// Stats() snapshots, and checks the invariants every snapshot must
// satisfy regardless of interleaving: counters never go backwards,
// failed requests never exceed admitted ones, gauges stay in
// range, and the mutation log length never decreases nor falls below
// the mutations acknowledged before the read (a swap between the
// version and pending reads would pair an old sealed position with a
// new empty backlog). Run under -race this also pins that the
// snapshot path takes no unsynchronized reads.
func TestStatsSnapshotConsistentUnderChurn(t *testing.T) {
	srv, net := buildDynamic(t, "tz", 80, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	g := net.Graph()

	const iters = 60
	var wg sync.WaitGroup
	// Routers: repeated and fresh pairs.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				u := g.Name(compactroute.NodeID((i + w) % net.N()))
				v := g.Name(compactroute.NodeID((i*3 + 1) % net.N()))
				resp, err := http.Get(fmt.Sprintf("%s/v1/route?src=%d&dst=%d", ts.URL, u, v))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	// Mutator: weight churn on a real edge, each mutation followed by
	// a synchronous rebuild + hot swap.
	var acked atomic.Uint64
	mutatorDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(mutatorDone)
		for i := 0; i < iters/4; i++ {
			resp, body := postJSON(t, ts, "/v1/mutate", []compactroute.Mutation{
				compactroute.MutSetWeight(g.Name(0), firstNeighbor(net), float64(1+i%5)),
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("mutate %d: %d %s", i, resp.StatusCode, body)
				return
			}
			acked.Add(1)
			if resp, body := postJSON(t, ts, "/v1/rebuild?wait=1", nil); resp.StatusCode != http.StatusOK {
				t.Errorf("rebuild %d: %d %s", i, resp.StatusCode, body)
				return
			}
		}
	}()
	// Reader: successive snapshots, taken until the mutator is done,
	// must be internally consistent and mutually monotonic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev Stats
		prev.Dynamic = &DynStats{}
		for i := 0; ; i++ {
			select {
			case <-mutatorDone:
				if i >= iters*2 {
					return
				}
			default:
			}
			floor := acked.Load()
			st := srv.Stats()
			s, d := st.Stats, st.Dynamic
			if s.Errors+s.Rejected > s.Requests {
				t.Errorf("snapshot %d: failed %d exceeds admitted %d: %+v",
					i, s.Errors+s.Rejected, s.Requests, s)
				return
			}
			if s.InFlight < 0 || s.InFlight > int64(s.Workers) {
				t.Errorf("snapshot %d: gauges out of range: %+v", i, s)
				return
			}
			if p := prev.Stats; s.Requests < p.Requests || s.Errors < p.Errors || s.Rejected < p.Rejected {
				t.Errorf("snapshot %d went backwards: %+v then %+v", i, p, s)
				return
			}
			if d.Mutations < prev.Dynamic.Mutations || d.Mutations < floor {
				t.Errorf("snapshot %d: log length %d (version %d, pending %d), previous %d, acknowledged before the read %d",
					i, d.Mutations, d.Version, d.Pending, prev.Dynamic.Mutations, floor)
				return
			}
			if d.Version < prev.Dynamic.Version || d.Pending > d.Mutations {
				t.Errorf("snapshot %d: version %d pending %d mutations %d after version %d",
					i, d.Version, d.Pending, d.Mutations, prev.Dynamic.Version)
				return
			}
			prev = st
		}
	}()
	wg.Wait()

	st := srv.Stats()
	if st.Requests == 0 {
		t.Fatalf("churn produced no pool traffic: %+v", st.Stats)
	}
	if want := acked.Load(); st.Dynamic.Mutations != want || st.Dynamic.Version != want || st.Dynamic.Pending != 0 {
		t.Fatalf("after %d mutate+rebuild rounds: %+v", want, *st.Dynamic)
	}
}
