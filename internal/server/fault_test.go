package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compactroute"
)

// TestUnreachableStatusPinned pins the HTTP mapping for the fault
// overlay's refusal: a route blocked by transient failures is a bad
// gateway (502) — the serving tier is healthy, the modeled network
// path is not — and the mapping must survive wrapping.
func TestUnreachableStatusPinned(t *testing.T) {
	if got := StatusFor(compactroute.ErrUnreachable); got != http.StatusBadGateway {
		t.Fatalf("StatusFor(ErrUnreachable) = %d, want %d", got, http.StatusBadGateway)
	}
	wrapped := fmt.Errorf("serve: route 1→2: %w", compactroute.ErrUnreachable)
	if got := StatusFor(wrapped); got != http.StatusBadGateway {
		t.Fatalf("StatusFor(wrapped ErrUnreachable) = %d, want %d", got, http.StatusBadGateway)
	}
}

// TestFailedElementReturns502 drives the fault overlay end-to-end over
// HTTP: failing the destination makes the route a 502 with the fault
// counters visible in healthz, and recovery restores the 200 — no
// rebuild in between, because failures are views, not topology.
func TestFailedElementReturns502(t *testing.T) {
	srv, net := buildDynamic(t, "fulltable", 50, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	g := net.Graph()
	src, dst := g.Name(0), g.Name(1)

	routeStatus := func() int {
		t.Helper()
		resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/route?src=%d&dst=%d", ts.URL, src, dst))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := routeStatus(); got != http.StatusOK {
		t.Fatalf("healthy route: %d", got)
	}
	if resp, body := postJSON(t, ts, "/v1/mutate", compactroute.MutFailNode(dst)); resp.StatusCode != http.StatusOK {
		t.Fatalf("fail node: %d %s", resp.StatusCode, body)
	}
	if got := routeStatus(); got != http.StatusBadGateway {
		t.Fatalf("route to a down node: %d, want 502", got)
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
	if h["downNodes"] != float64(1) || h["downEdges"] != float64(0) {
		t.Fatalf("healthz fault fields: %+v", h)
	}
	if resp, body := postJSON(t, ts, "/v1/mutate", compactroute.MutRecoverNode(dst)); resp.StatusCode != http.StatusOK {
		t.Fatalf("recover node: %d %s", resp.StatusCode, body)
	}
	if got := routeStatus(); got != http.StatusOK {
		t.Fatalf("route after recovery: %d", got)
	}
}

// TestMutateJournalsEachFaultOnce pins the journal's fault entries:
// Mutate records every accepted fail/recover event exactly once, in
// its trace spelling, while permanent churn and rejected batches
// record none.
func TestMutateJournalsEachFaultOnce(t *testing.T) {
	srv, net := buildDynamic(t, "fulltable", 50, 0)
	u, v, w := net.Graph().Name(0), firstNeighbor(net), net.Graph().Name(5)
	if _, err := srv.Mutate(
		compactroute.MutFailEdge(u, v),
		compactroute.MutSetWeight(u, v, 2),
		compactroute.MutFailNode(w),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Mutate(compactroute.MutRecoverEdge(v, u), compactroute.MutRecoverNode(w)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Mutate(compactroute.MutFailNode(w), compactroute.MutRecoverEdge(u, v)); err == nil {
		t.Fatal("batch recovering an up edge accepted")
	}
	var got []string
	for _, ev := range srv.journal.Events() {
		if ev.Kind == "fault" {
			got = append(got, ev.Detail)
		}
	}
	want := []string{
		fmt.Sprintf("failedge %d %d", u, v),
		fmt.Sprintf("failnode %d", w),
		fmt.Sprintf("recoveredge %d %d", v, u),
		fmt.Sprintf("recovernode %d", w),
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fault journal %q, want %q", got, want)
	}
}

// TestFaultHammer is the PR's -race acceptance test: concurrent
// clients replay queries through the serving pool while a failure
// trace is injected through Mutate and rebuilds hot-swap versions
// underneath them. Every query must either deliver or fail with the
// pinned ErrUnreachable mapping — no panics, no torn reads, no other
// error — and after the recovery tail quiesces the overlay, the
// server serves every pair again and leaks no goroutines.
func TestFaultHammer(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	srv, err := New(Config{
		Scheme: "fulltable", N: 90, K: 2, Seed: 11, SFactor: 0.5,
		Workers: 4, CacheSize: 256, Logf: discardLogf,
		BestOfBoth: true, DampPenalty: 4, DampHalfLife: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)
	g := srv.Scheme().Network().Graph()

	// Fail-only profile: the graph never changes, so every base name
	// stays valid across rebuilds and the queriers need no coordination
	// with the injector. Rebuilds still seal + swap real versions (the
	// transient ops replay under existence-only validation).
	trace, recovery, err := compactroute.GenerateFaultMutations(
		srv.Scheme().Network(), 80, 7,
		compactroute.FaultProfile{FailEdge: 3, FailNode: 1, Recover: 2})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served, refused atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := g.Name(compactroute.NodeID((w*13 + i) % g.N()))
				dst := g.Name(compactroute.NodeID((w*29 + i*7 + 1) % g.N()))
				_, err := srv.pool.Route(context.Background(), src, dst)
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, compactroute.ErrUnreachable):
					if StatusFor(err) != http.StatusBadGateway {
						t.Errorf("refusal maps to %d, want 502: %v", StatusFor(err), err)
						return
					}
					refused.Add(1)
				default:
					t.Errorf("route %d→%d: unexpected error under faults: %v", src, dst, err)
					return
				}
			}
		}(w)
	}

	// On a single-CPU runner the injector can finish (and close stop)
	// before the queriers' first iteration ever runs; wait for one
	// completed query so the hammer actually overlaps the injection.
	// The overlay is still empty here, so that query delivered.
	for served.Load()+refused.Load() == 0 {
		runtime.Gosched()
	}

	// Inject the trace in small batches, hot-swapping a rebuild every
	// few batches so outages span version boundaries mid-query.
	for i := 0; i < len(trace); i += 4 {
		end := min(i+4, len(trace))
		if _, err := srv.Mutate(trace[i:end]...); err != nil {
			t.Fatal(err)
		}
		if (i/4)%5 == 4 {
			if _, err := srv.Rebuild(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Quiesce: recover every open outage, then one final swap.
	if len(recovery) > 0 {
		if _, err := srv.Mutate(recovery...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if served.Load() == 0 {
		t.Fatal("no queries delivered during the hammer")
	}
	t.Logf("hammer: %d delivered, %d refused (502)", served.Load(), refused.Load())

	// Quiescence: the overlay is empty and a strided sample over the
	// whole graph serves 100% — no fault may be remembered as topology.
	st := srv.Stats()
	if st.Faults == nil || st.Faults.DownNodes != 0 || st.Faults.DownEdges != 0 {
		t.Fatalf("fault view not empty after recovery tail: %+v", st.Faults)
	}
	for s := 0; s < g.N(); s += 7 {
		for d := 1; d < g.N(); d += 11 {
			res, err := srv.pool.Route(context.Background(), g.Name(compactroute.NodeID(s)), g.Name(compactroute.NodeID(d)))
			if err != nil {
				t.Fatalf("post-quiescence route %d→%d: %v", s, d, err)
			}
			if !res.Delivered {
				t.Fatalf("post-quiescence route %d→%d not delivered", s, d)
			}
		}
	}

	srv.Close()
	cancel()
	// Everything the hammer spawned — workers, rebuild loop, reverse
	// walks — must be gone (same tolerance as lifecycle_test.go).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
