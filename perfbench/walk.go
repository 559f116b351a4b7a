package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"compactroute"
	"compactroute/internal/graph"
	"compactroute/internal/obs"
	"compactroute/internal/stats"
	"compactroute/internal/workload"
)

// queryBuffer pre-generates a seeded query stream so the timed loops
// pay nothing to draw their next pair.
func queryBuffer(p workload.Pattern, g *graph.Graph, seed, fork uint64, n int) ([]workload.Query, error) {
	s, err := workload.New(p, g, workload.Options{Seed: seed, Fork: fork})
	if err != nil {
		return nil, err
	}
	qs := make([]workload.Query, n)
	for i := range qs {
		qs[i] = s.Next()
	}
	return qs, nil
}

// runWalk routes a uniform stream back to back through the paper
// scheme's in-process walk: no pool, no HTTP, no cluster, no dynamic
// topology. Only the build (sssp, schemes) and the walk (sim, core)
// do work here.
func runWalk(ctx context.Context, c runConfig) (*result, error) {
	r := newResult("walk", c)
	sz := c.sizes
	n := sz.walkN
	cfg := paperConfig

	var setups, builds []timing
	var apsps []float64
	var scheme *compactroute.Scheme
	for range sz.setupReps {
		scheme = nil
		runtime.GC() // the previous set-up must not be live while the next is timed
		steal := startSteal()
		t0 := time.Now()
		net := compactroute.RandomNetwork(topoSeed, n, 8/float64(n), compactroute.UniformWeights(1, 8))
		t1 := time.Now()
		s, err := compactroute.BuildStream(ctx, net, cfg)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		t2 := time.Now()
		stolen := steal.share()
		setups = append(setups, timing{t2.Sub(t0).Seconds(), stolen})
		apsps = append(apsps, t1.Sub(t0).Seconds())
		builds = append(builds, timing{t2.Sub(t1).Seconds(), stolen})
		scheme = s
	}
	g := scheme.Network().Graph()
	qs, err := queryBuffer(workload.Uniform, g, c.seed, 0, sz.queries)
	if err != nil {
		return nil, err
	}

	// Warm-up: one untimed pass over the whole buffer, which also
	// checks every buffered pair.
	type answer struct {
		cost float64
		hops int
	}
	check := make([]answer, min(sz.checkPairs, len(qs)))
	for i, q := range qs {
		res, err := scheme.RouteByNameCtx(ctx, q.SrcName, q.DstName)
		if walkOK(r, q, res, err) && i < len(check) {
			check[i] = answer{res.Cost, res.Hops}
		}
	}
	pairs, err := queryBuffer(workload.Uniform, g, topoSeed, stretchFork, sz.stretchPairs)
	if err != nil {
		return nil, err
	}
	var st stats.Stretch
	for _, q := range pairs {
		res, err := scheme.RouteByNameCtx(ctx, q.SrcName, q.DstName)
		if walkOK(r, q, res, err) {
			st.Add(res.Cost, res.ShortestCost)
		}
	}
	checkQs := slices.Clone(qs[:len(check)])
	runtime.GC()

	traced := newReservoir(1<<16, c.seed+1)
	perHop := newReservoir(1<<16, c.seed+2)
	tracer := obs.NewTracer(1, 0)
	var rt runtimeDelta
	var reads, plain, failed, hops int64 // plain: reads in untraced windows
	// window routes qs from next into lat until count routes are done
	// or the deadline passes, timing each one from outside; with trace
	// set it routes with an obs trace on the context.
	next := 0
	window := func(count int, deadline time.Time, trace bool, lat *reservoir) {
		bg := context.Background()
		for done := 0; count <= 0 || done < count; done++ {
			q := qs[next]
			next = (next + 1) % len(qs)
			rctx := bg
			if trace {
				rctx = obs.WithTrace(bg, tracer.Begin("walk"))
			}
			t0 := time.Now()
			res, err := scheme.RouteByNameCtx(rctx, q.SrcName, q.DstName)
			t1 := time.Now()
			ns := t1.Sub(t0).Nanoseconds()
			if !walkOK(r, q, res, err) {
				failed++
				ns = failedNs
			}
			reads++
			lat.add(ns)
			if !trace {
				plain++
				hops += int64(res.Hops)
				if res.Hops > 0 && ns != failedNs {
					perHop.add(ns / int64(res.Hops))
				}
			}
			if t1.After(deadline) {
				return
			}
		}
	}

	steal := startSteal()
	var rounds []round
	var tracedP50 float64 // traced ÷ untraced read p50
	if !c.traced {
		rt.start()
		rounds = timeRounds(sz.rounds, c.timed, func(deadline time.Time) (int64, *reservoir) {
			lat := newReservoir(1<<16, c.seed)
			before := plain - failed
			window(0, deadline, false, lat)
			return plain - failed - before, lat
		})
		rt.stop(plain)
	} else {
		// Alternate untraced and traced windows of equal size, so the
		// probe's cost is measured against the same stretch of time.
		lat := newReservoir(1<<16, c.seed)
		deadline := time.Now().Add(c.timed)
		size := 8 * sz.window
		for k := 0; time.Now().Before(deadline); k++ {
			if k%2 == 0 {
				rt.start()
				before := plain
				window(size, deadline, false, lat)
				rt.stop(plain - before)
			} else {
				window(size, deadline, true, traced)
			}
		}
		r.Reads.latency = lat.summary()
		tracedP50 = ratio(traced.p50(), lat.p50())
	}
	r.Env.StealShare = steal.share()
	perHopP50 := perHop.p50()
	qs, traced, perHop = nil, nil, nil // only the program's own data stays live
	heap := liveHeapMiB()

	// Gate: a fixed sample re-routed through the path-reporting walk
	// must agree with the plain walk on cost and hops.
	for i, want := range check {
		q := checkQs[i]
		res, path, err := scheme.RoutePathByNameCtx(ctx, q.SrcName, q.DstName)
		switch {
		case err != nil:
			r.fail("path re-route %#x→%#x: %v", q.SrcName, q.DstName, err)
		case res.Cost != want.cost || res.Hops != want.hops:
			r.fail("path re-route %#x→%#x: cost %v hops %d, plain walk cost %v hops %d",
				q.SrcName, q.DstName, res.Cost, res.Hops, want.cost, want.hops)
		case len(path) != res.Hops+1:
			r.fail("path re-route %#x→%#x: %d path nodes for %d hops", q.SrcName, q.DstName, len(path), res.Hops)
		}
	}

	r.Attempted, r.Failed = reads, failed
	m := r.Metrics
	if !c.traced {
		r.Rounds, r.Reads = rounds, summarize(rounds)
		if !r.Reads.P99OK {
			r.fail("too few reads in a round for a p99 (%d sampled)", r.Reads.Sample)
		}
	}
	m["setup_s"] = steadyMedian(setups)
	m["route_qps"] = r.Reads.QPS
	m["route_p50_us"] = r.Reads.P50us
	m["route_p99_us"] = r.Reads.P99us
	m["ok_ratio"] = ratio(float64(reads-failed), float64(reads))
	m["rebuild_s"] = steadyMedian(builds)
	m["stretch_mean"] = st.Mean()
	m["stretch_max"] = st.Max()
	m["table_bits_max"] = float64(scheme.MaxTableBits())
	m["heap_live_mib"] = heap

	meanBits := scheme.MeanTableBits()
	m["sssp.apsp_s"] = median(apsps)
	m["schemes.build_s"] = m["rebuild_s"]
	m["sim.hops_mean"] = float64(hops) / float64(max(plain, 1))
	m["sim.ns_per_hop_p50"] = perHopP50
	m["sim.walk_us_p50"] = r.Reads.P50us
	m["core.table_bits_mean"] = meanBits
	m["core.heap_per_table_byte"] = heap * (1 << 20) / (float64(g.N()) * meanBits / 8)
	rt.report(m)
	m["obs.traced_p50_ratio"] = tracedP50
	fillLayers(m)
	r.Notes = append(r.Notes, fmt.Sprintf("set-ups (s, steal) %v", setups))
	return r, nil
}

// walkOK applies the per-route gate of the in-process walk: delivered,
// with a known metric, never shorter than the shortest path.
func walkOK(r *result, q workload.Query, res compactroute.Result, err error) bool {
	switch {
	case err != nil:
		r.fail("route %#x→%#x: %v", q.SrcName, q.DstName, err)
	case !res.Delivered:
		r.fail("route %#x→%#x: not delivered", q.SrcName, q.DstName)
	case !res.MetricKnown:
		r.fail("route %#x→%#x: metric unknown", q.SrcName, q.DstName)
	case res.Cost < res.ShortestCost*(1-1e-9):
		r.fail("route %#x→%#x: cost %v below shortest %v", q.SrcName, q.DstName, res.Cost, res.ShortestCost)
	default:
		return true
	}
	return false
}

// fillLayers sets every per-layer metric not measured yet to 0, the
// value of a layer the workload bypasses.
func fillLayers(m map[string]float64) {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
}
