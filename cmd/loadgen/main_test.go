package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compactroute"
	"compactroute/internal/dynamic"
	"compactroute/internal/serve"
	"compactroute/internal/workload"
)

// testDaemon builds a small scheme, round-trips it through Save/Load
// (the file the generator and daemon would share), and serves it the
// way cmd/routed does: a serve.Pool behind a /v1/route handler.
func testDaemon(t *testing.T) (*compactroute.Scheme, *httptest.Server) {
	t.Helper()
	net := compactroute.RandomNetwork(5, 80, 0.08, compactroute.UniformWeights(1, 5))
	built, err := compactroute.Build(net, compactroute.Config{Kind: compactroute.KindPaper, K: 2, Seed: 3, SFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compactroute.Save(&buf, built); err != nil {
		t.Fatal(err)
	}
	loaded, err := compactroute.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pool := serve.NewPool(serve.RouterFunc(loaded.RouteByNameCtx), 4)
	ts := httptest.NewServer(routeMux(pool))
	t.Cleanup(ts.Close)
	return loaded, ts
}

// routeMux is the minimal /v1/route surface the client package needs.
func routeMux(pool *serve.Pool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/route", func(w http.ResponseWriter, r *http.Request) {
		src, err1 := strconv.ParseUint(r.URL.Query().Get("src"), 10, 64)
		dst, err2 := strconv.ParseUint(r.URL.Query().Get("dst"), 10, 64)
		if err1 != nil || err2 != nil {
			http.Error(w, `{"error":"bad name"}`, http.StatusBadRequest)
			return
		}
		res, err := pool.Route(context.Background(), src, dst)
		if err != nil {
			http.Error(w, `{"error":"unknown"}`, http.StatusUnprocessableEntity)
			return
		}
		json.NewEncoder(w).Encode(res)
	})
	return mux
}

// TestReplayPatterns drives the full client path for several workload
// patterns (the loadgen acceptance shape: throughput + percentiles
// for ≥ 3 patterns).
func TestReplayPatterns(t *testing.T) {
	scheme, ts := testDaemon(t)
	clients := newClients([]string{ts.URL}, 5*time.Second)
	base := workload.Options{Seed: 1, Candidates: 64, Keep: 8}
	for _, p := range []workload.Pattern{workload.Uniform, workload.Zipf, workload.Gravity, workload.Local, workload.Adversarial} {
		streams, err := patternStreams(p, scheme.Network().Graph(), scheme, 4, base)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		const queries = 120
		rep, err := replay(clients, streams, queries, 8, nil)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if rep.queries != queries {
			t.Fatalf("%s: report counts %d queries, want %d", p, rep.queries, queries)
		}
		if rep.failed != 0 {
			t.Fatalf("%s: %d failed requests against a healthy daemon", p, rep.failed)
		}
		if rep.latency.N() != queries {
			t.Fatalf("%s: %d latency samples for %d queries", p, rep.latency.N(), queries)
		}
		if rep.qps() <= 0 {
			t.Fatalf("%s: qps %v", p, rep.qps())
		}
		if p50, max := rep.latency.Percentile(50), rep.latency.Max(); p50 <= 0 || max < p50 {
			t.Fatalf("%s: implausible latency p50=%v max=%v", p, p50, max)
		}
	}
}

// TestReplaySpreadsAcrossTargets: with several -targets, every target
// sees a share of the traffic.
func TestReplaySpreadsAcrossTargets(t *testing.T) {
	scheme, _ := testDaemon(t)
	var hits [3]atomic.Uint64
	urls := make([]string, len(hits))
	for i := range hits {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			w.Write([]byte(`{"delivered":true}`))
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	streams, err := patternStreams(workload.Uniform, scheme.Network().Graph(), scheme, 4, workload.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay(newClients(urls, time.Second), streams, 90, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("%d failures across fake targets", rep.failed)
	}
	var total uint64
	counts := make([]uint64, len(hits))
	for i := range hits {
		counts[i] = hits[i].Load()
		total += counts[i]
	}
	for i, n := range counts {
		if n == 0 {
			t.Fatalf("target %d got no traffic: %v", i, counts)
		}
	}
	if total != 90 {
		t.Fatalf("targets saw %d requests, want 90", total)
	}
}

func TestSplitTargets(t *testing.T) {
	got := splitTargets(" http://a:1, ,http://b:2,")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("splitTargets = %v", got)
	}
	if got := splitTargets(""); len(got) != 0 {
		t.Fatalf("splitTargets(\"\") = %v", got)
	}
}

// TestReplayCountsHTTPFailures: API error statuses are counted, not
// fatal, and contribute no latency samples.
func TestReplayCountsHTTPFailures(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	scheme, _ := testDaemon(t)
	streams, err := patternStreams(workload.Uniform, scheme.Network().Graph(), scheme, 2, workload.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay(newClients([]string{ts.URL}, time.Second), streams, 20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 20 || rep.latency.N() != 0 {
		t.Fatalf("report %+v", rep)
	}
	// The breakdown times error responses by status class: every 503
	// lands in its own sample, not in the success percentiles.
	if rep.lat503.N() != 20 || rep.lat409.N() != 0 || rep.lat502.N() != 0 {
		t.Fatalf("status-class samples 409=%d 502=%d 503=%d, want 0/0/20",
			rep.lat409.N(), rep.lat502.N(), rep.lat503.N())
	}
	if p95OrDash(rep.lat503) == "-" || p95OrDash(rep.lat409) != "-" {
		t.Fatalf("p95OrDash: 503=%q 409=%q", p95OrDash(rep.lat503), p95OrDash(rep.lat409))
	}
}

// TestReplayAbortsOnTransportError: a dead daemon is an error, not a
// zero-latency success.
func TestReplayAbortsOnTransportError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // nothing listening
	scheme, _ := testDaemon(t)
	streams, err := patternStreams(workload.Uniform, scheme.Network().Graph(), scheme, 2, workload.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay(newClients([]string{ts.URL}, time.Second), streams, 10, 0, nil); err == nil {
		t.Fatal("replay against a dead daemon did not error")
	}
}

func TestFmtLatency(t *testing.T) {
	if got := fmtLatency(0.00153); got != "1.53ms" {
		t.Fatalf("fmtLatency = %q", got)
	}
}

// TestChurnPacesMutationsAndRebuilds drives the churn goroutine
// against a fake dynamic daemon and checks the trace is consumed in
// order, paced by the query counter, with rebuilds at the configured
// cadence and a final synchronous flush.
func TestChurnPacesMutationsAndRebuilds(t *testing.T) {
	var mu sync.Mutex
	var gotMuts []dynamic.Mutation
	rebuilds := 0
	waits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/v1/mutate":
			var ms []dynamic.Mutation
			if err := json.NewDecoder(r.Body).Decode(&ms); err != nil {
				t.Errorf("mutate body: %v", err)
			}
			gotMuts = append(gotMuts, ms...)
		case "/v1/rebuild":
			rebuilds++
			if r.URL.Query().Get("wait") != "" {
				waits++
			}
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()

	muts := []dynamic.Mutation{
		{Op: dynamic.OpSetWeight, U: 1, V: 2, W: 3},
		{Op: dynamic.OpSetWeight, U: 2, V: 3, W: 4},
		{Op: dynamic.OpAddNode, Name: 9, V: 1, W: 1},
		{Op: dynamic.OpRemoveEdge, U: 1, V: 2},
	}
	c := &churn{
		client: newClients([]string{ts.URL}, time.Second)[0], muts: muts,
		mutateEvery: 10, rebuildEvery: 2,
	}
	c.start()
	// Feed the counter like replay workers would, in steps, and wait
	// for the churn to catch up to each threshold.
	for step := 1; step <= len(muts); step++ {
		c.counter.Store(uint64(step * 10))
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			n := len(gotMuts)
			mu.Unlock()
			if n >= step {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("churn stalled at %d/%d mutations", n, step)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := c.finish(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gotMuts) != len(muts) {
		t.Fatalf("applied %d mutations, want %d", len(gotMuts), len(muts))
	}
	for i := range muts {
		if gotMuts[i] != muts[i] {
			t.Fatalf("mutation %d out of order: got %+v want %+v", i, gotMuts[i], muts[i])
		}
	}
	// 2 cadence rebuilds (after mutations 2 and 4) + 1 final wait=1.
	if rebuilds != 3 || waits != 1 {
		t.Fatalf("rebuilds=%d waits=%d, want 3/1", rebuilds, waits)
	}
	if c.summary() == "" {
		t.Fatal("empty churn summary")
	}
}

// TestChurnStopsOnDaemonError: a 409 from a static daemon stops the
// churn with the error rather than replaying an inconsistent suffix.
func TestChurnStopsOnDaemonError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"static"}`, http.StatusConflict)
	}))
	defer ts.Close()
	c := &churn{
		client:      newClients([]string{ts.URL}, time.Second)[0],
		muts:        []dynamic.Mutation{{Op: dynamic.OpSetWeight, U: 1, V: 2, W: 3}},
		mutateEvery: 1,
	}
	c.start()
	c.counter.Store(100)
	select {
	case <-c.done: // the 409 stopped the churn on its own
	case <-time.After(5 * time.Second):
		t.Fatal("churn never attempted the POST")
	}
	if err := c.finish(); err == nil {
		t.Fatal("churn against a static daemon did not error")
	}
	if c.applied != 0 {
		t.Fatalf("applied=%d after rejection", c.applied)
	}
}
