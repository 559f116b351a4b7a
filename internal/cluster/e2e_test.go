package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compactroute"
	"compactroute/client"
)

// TestEndToEndClusterChurn is the acceptance run for the serving
// tier: two shards behind a front-door, a concurrent route replay
// that tolerates ZERO failures, 120 mutations fanned out in batches,
// a coordinated hot-swap every three batches. Afterwards both shards
// serve the same version, no skew was ever observed, and a strided
// sample of front-door answers — stretch included — is bit-identical
// to a cold single-process build of the final topology.
func TestEndToEndClusterChurn(t *testing.T) {
	const nodes = 110
	c, servers, _ := bootCluster(t, 2, nodes, time.Hour)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	fc := client.New(front.URL)
	ctx := context.Background()

	net := servers[0].Scheme().Network()
	g := net.Graph()
	muts, err := compactroute.GenerateMutations(net, 120, 21)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent replay over base names (present in every version),
	// entirely through the front-door: every answer must arrive and be
	// delivered, across mutation fan-outs, ejectionless health checks,
	// and four cut-overs.
	stop := make(chan struct{})
	var queries, failures atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := client.New(front.URL)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := g.Name(compactroute.NodeID((w*13 + i) % nodes))
				dst := g.Name(compactroute.NodeID((w*29 + i*7 + 1) % nodes))
				res, err := wc.RouteByName(ctx, src, dst)
				if err != nil || !res.Delivered {
					t.Logf("query %d→%d: %+v, %v", src, dst, res, err)
					failures.Add(1)
					return
				}
				queries.Add(1)
			}
		}(w)
	}

	// Churn: 120 mutations in batches of 10 through the front-door, a
	// coordinated rebuild every 3 batches (4 cut-overs total).
	applied := uint64(0)
	for b := 0; b < 12; b++ {
		mr, err := fc.Mutate(ctx, muts[b*10:(b+1)*10]...)
		if err != nil {
			t.Fatalf("mutate batch %d: %v", b, err)
		}
		applied += 10
		if mr.Seq != applied {
			t.Fatalf("mutate batch %d sealed at seq %d, want %d", b, mr.Seq, applied)
		}
		if (b+1)%3 == 0 {
			v, err := fc.RebuildWait(ctx) // front-door always coordinates
			if err != nil {
				t.Fatalf("coordinated rebuild after batch %d: %v", b, err)
			}
			if v.MutTo != applied {
				t.Fatalf("cut-over sealed at mutation %d, want %d", v.MutTo, applied)
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

	// Both shards landed on the same version, through four coordinated
	// swaps, with no skew ever surfacing.
	for i, s := range servers {
		v, ok := s.Version()
		if !ok {
			t.Fatalf("shard %d not dynamic", i)
		}
		if v.ID != 4 || v.MutTo != 120 {
			t.Fatalf("shard %d at version %d (mutTo %d), want 4 (120)", i, v.ID, v.MutTo)
		}
	}
	st := c.Stats()
	if st.Swaps != 4 || st.SkewObserved != 0 {
		t.Fatalf("cluster stats after churn: %+v", st)
	}
	if st.LastCutoverNs <= 0 || st.MaxCutoverNs >= int64(time.Second) {
		t.Fatalf("cut-over pause out of range: last %v max %v",
			time.Duration(st.LastCutoverNs), time.Duration(st.MaxCutoverNs))
	}

	// Front-door answers match a cold single-process build of the
	// final topology — delivery, cost, hops, header bits, shortest
	// cost, and stretch — and carry the final version.
	finalNet, err := compactroute.ReplayNetwork(net, muts)
	if err != nil {
		t.Fatal(err)
	}
	finalNet.EnsureMetric()
	cold, err := compactroute.Build(finalNet, compactroute.Config{Kind: "fulltable", K: 2, Seed: 11, SFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fg := finalNet.Graph()
	checked, crossOwner := 0, 0
	for s := 0; s < fg.N(); s += 5 {
		for d := 1; d < fg.N(); d += 7 {
			src, dst := fg.Name(compactroute.NodeID(s)), fg.Name(compactroute.NodeID(d))
			want, err := cold.RouteByName(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fc.RouteByName(ctx, src, dst)
			if err != nil {
				t.Fatalf("route %d→%d: %v", src, dst, err)
			}
			if got.Delivered != want.Delivered || got.Cost != want.Cost ||
				got.Hops != want.Hops || got.HeaderBits != want.HeaderBits ||
				got.ShortestCost != want.ShortestCost {
				t.Fatalf("route %d→%d diverged from cold build: cluster %+v cold %+v", src, dst, got, want)
			}
			// Stretch 0 on the wire for the degenerate self-route.
			if want.ShortestCost > 0 && got.Stretch != want.Stretch() {
				t.Fatalf("route %d→%d stretch %v, cold %v", src, dst, got.Stretch, want.Stretch())
			}
			if got.Version == nil || *got.Version != 4 {
				t.Fatalf("route %d→%d version %v, want 4", src, dst, got.Version)
			}
			if c.Owner(src) != c.Owner(dst) {
				crossOwner++
			}
			checked++
		}
	}
	if checked == 0 || crossOwner == 0 {
		t.Fatalf("cold-build sample too thin: %d checked, %d cross-owner", checked, crossOwner)
	}
}

// TestShardKillDuringFaultChurn is the resilience acceptance run: a
// three-shard cluster (every shard serving with best-of-both on, so
// the reverse walk runs under the live fault overlay) replays queries
// while a failure trace churns through the mutate fan-out, and one
// shard is killed mid-churn. Survivors must keep serving every query
// — delivered, or refused with the fault overlay's pinned 502, never
// anything else. The dead shard, revived with a short log, must stay
// ejected until it matches a healthy peer's version AND log position;
// caught up out-of-band, it must come back.
func TestShardKillDuringFaultChurn(t *testing.T) {
	const nodes = 90
	// Each probe's deadline is one interval: 200ms leaves a healthy
	// shard slowed by -race room to answer. Ejection in this test rides
	// the mutate fan-out (immediate), not the probe, so the interval
	// only paces re-admission — and the white-box probe nudges below
	// keep that prompt.
	const healthEvery = 200 * time.Millisecond
	cfg := shardConfig(nodes)
	cfg.BestOfBoth = true
	c, servers, wraps := bootClusterWith(t, cfg, 3, healthEvery)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	fc := client.New(front.URL)
	ctx := context.Background()

	net := servers[0].Scheme().Network()
	g := net.Graph()
	// Fail-only profile: the graph never changes, so every base name
	// resolves in every version and the replay needs no coordination
	// with the churn.
	trace, recovery, err := compactroute.GenerateFaultMutations(net, 40, 9,
		compactroute.FaultProfile{FailEdge: 3, FailNode: 1, Recover: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent replay: every front-door answer is either delivered
	// or the overlay's honest 502 refusal. Transport errors, 409s, or
	// anything else is a serving-tier failure and fails the test.
	stop := make(chan struct{})
	var delivered, refused, failures atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := client.New(front.URL)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := g.Name(compactroute.NodeID((w*13 + i) % nodes))
				dst := g.Name(compactroute.NodeID((w*29 + i*7 + 1) % nodes))
				res, err := wc.RouteByName(ctx, src, dst)
				switch {
				case err == nil && res.Delivered:
					delivered.Add(1)
				case client.IsStatus(err, http.StatusBadGateway):
					refused.Add(1)
				default:
					t.Logf("query %d→%d: %+v, %v", src, dst, res, err)
					failures.Add(1)
					return
				}
			}
		}(w)
	}

	// Phase 1: half the failure trace through the fan-out, one
	// coordinated cut-over, all three shards up.
	half := len(trace) / 2
	applied := uint64(0)
	for b := 0; b < half; b += 5 {
		if _, err := fc.Mutate(ctx, trace[b:min(b+5, half)]...); err != nil {
			t.Fatalf("phase-1 mutate at %d: %v", b, err)
		}
	}
	applied += uint64(half)
	if v, err := fc.RebuildWait(ctx); err != nil || v.MutTo != applied {
		t.Fatalf("phase-1 cut-over: %+v, %v (want mutTo %d)", v, err, applied)
	}

	// Kill shard 2 mid-churn. The rest of the trace keeps flowing: the
	// first fan-out that hits the corpse ejects it and continues on
	// the survivors.
	wraps[2].down.Store(true)
	for b := half; b < len(trace); b += 5 {
		if _, err := fc.Mutate(ctx, trace[b:min(b+5, len(trace))]...); err != nil {
			t.Fatalf("mutate with a dead shard at %d: %v", b, err)
		}
	}
	applied = uint64(len(trace))
	deadline := time.Now().Add(10 * time.Second)
	for c.shards[2].healthy.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("dead shard never ejected: %+v", c.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Quiesce the overlay on the survivors and cut over again.
	if len(recovery) > 0 {
		if _, err := fc.Mutate(ctx, recovery...); err != nil {
			t.Fatalf("recovery tail: %v", err)
		}
		applied += uint64(len(recovery))
	}
	if v, err := fc.RebuildWait(ctx); err != nil || v.MutTo != applied {
		t.Fatalf("post-recovery cut-over: %+v, %v (want mutTo %d)", v, err, applied)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d survivor-era queries failed (%d delivered, %d refused)",
			failures.Load(), delivered.Load(), refused.Load())
	}
	if delivered.Load() == 0 {
		t.Fatal("no queries delivered during the kill-churn")
	}
	if st := c.Stats(); st.Ejections == 0 {
		t.Fatalf("cluster stats after kill: %+v", st)
	}

	// Deterministic overlay refusal through the cluster: fail a node,
	// the front-door answers 502 for routes to it, recovery restores
	// delivery. (Replayed onto the dead shard later so logs line up.)
	downName := g.Name(compactroute.NodeID(nodes / 2))
	extra := []compactroute.Mutation{
		compactroute.MutFailNode(downName),
		compactroute.MutRecoverNode(downName),
	}
	if _, err := fc.Mutate(ctx, extra[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.RouteByName(ctx, g.Name(0), downName); !client.IsStatus(err, http.StatusBadGateway) {
		t.Fatalf("route to a down node through the front-door: %v, want 502", err)
	}
	if _, err := fc.Mutate(ctx, extra[1]); err != nil {
		t.Fatal(err)
	}
	if res, err := fc.RouteByName(ctx, g.Name(0), downName); err != nil || !res.Delivered {
		t.Fatalf("route after recovery: %+v, %v", res, err)
	}
	applied += uint64(len(extra))

	// Revive the corpse with its short log: it answers health probes
	// but missed mutations and a cut-over, so re-admission must refuse
	// (version and log-position both disagree). White-box nudge: clear
	// the probe backoff the outage accumulated so the health loop
	// compares promptly instead of sleeping out a capped window.
	wraps[2].down.Store(false)
	c.shards[2].fails.Store(0)
	c.shards[2].nextProbe.Store(0)
	time.Sleep(6 * healthEvery)
	if c.shards[2].healthy.Load() {
		t.Fatalf("divergent shard re-admitted: %+v", c.Stats())
	}

	// Catch it up out-of-band — the same mutations its peers logged,
	// one rebuild to the same version ID — and the health loop must
	// take it back.
	missed := append(append([]compactroute.Mutation{}, trace[half:]...), recovery...)
	if _, err := servers[2].Mutate(missed...); err != nil {
		t.Fatalf("out-of-band catch-up: %v", err)
	}
	if _, err := servers[2].Rebuild(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := servers[2].Mutate(extra...); err != nil {
		t.Fatal(err)
	}
	if v, _ := servers[2].Version(); v.ID != 2 {
		t.Fatalf("caught-up shard at version %d, want 2", v.ID)
	}
	c.shards[2].fails.Store(0)
	c.shards[2].nextProbe.Store(0)
	deadline = time.Now().Add(15 * time.Second)
	for !c.shards[2].healthy.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("caught-up shard never re-admitted: %+v", c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.Stats().Readmissions == 0 {
		t.Fatal("readmission not counted")
	}

	// Full strength again: every shard fault-free at the same version,
	// and a route flows through the re-admitted world.
	for i, s := range servers {
		v, _ := s.Version()
		if v.ID != 2 || v.MutTo != uint64(len(trace)+len(recovery)) {
			t.Fatalf("shard %d at version %d (mutTo %d) after re-admission", i, v.ID, v.MutTo)
		}
		if f := s.Stats().Faults; f == nil || f.DownNodes != 0 || f.DownEdges != 0 {
			t.Fatalf("shard %d fault view not empty: %+v", i, f)
		}
	}
	if res, err := fc.RouteByName(ctx, g.Name(1), g.Name(2)); err != nil || !res.Delivered {
		t.Fatalf("route after full recovery: %+v, %v", res, err)
	}
}
