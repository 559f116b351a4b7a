package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"compactroute/internal/dynamic"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/schemes"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
	"compactroute/internal/stats"
)

// RunD1 measures the dynamic-topology control plane (internal/dynamic,
// DESIGN.md §7) per scheme kind and churn rate (mutations per
// rebuild): background rebuild latency, the serving swap pause
// (the pointer store — the only serving-visible cost, which must stay
// far below a millisecond), and the staleness-induced
// stretch — how far routes answered by the OLD version drift from the
// true shortest paths of the mutated topology while the rebuild is
// pending. After the final swap it verifies the hot-swapped schemes
// route bit-identically to a cold build of the final graph, the
// correctness contract the whole subsystem rests on (an error here
// fails the experiment, it is not a reported number).
func RunD1(ctx context.Context, w io.Writer, cfg Config) error {
	n, rebuilds := 384, 3
	kinds := []string{
		schemes.KindPaper, schemes.KindFullTable, schemes.KindAPCover,
		schemes.KindLandmarkChain, schemes.KindTZ,
	}
	churns := []int{16, 64}
	if cfg.Quick {
		n, rebuilds = 128, 2
		kinds = []string{schemes.KindFullTable, schemes.KindLandmarkChain}
		churns = []int{8, 32}
	}
	tb := stats.NewTable("D1: dynamic topology — rebuild latency, swap pause, staleness vs churn",
		"kind", "n", "churn", "rebuilds", "mean rebuild", "max swap pause", "pause<1ms",
		"stale stretch mean", "stale stretch max", "cold-identical")
	for ki, kind := range kinds {
		for _, churn := range churns {
			g := gen.Gnp(cfg.Seed, n, 8/float64(n), gen.Uniform(1, 8))
			scfg := schemes.Config{Kind: kind, K: 3, Seed: cfg.Seed, SFactor: 0.25}
			top, err := dynamic.NewTopology(ctx, g, dynamic.TopologyOptions{Configs: []schemes.Config{scfg}})
			if err != nil {
				return fmt.Errorf("D1: %s: %w", kind, err)
			}
			muts, err := dynamic.GenerateTrace(g, churn*rebuilds, cfg.Seed+uint64(ki)*101)
			if err != nil {
				return fmt.Errorf("D1: %s: %w", kind, err)
			}
			// Staleness is a plain Sample, not a Stretch: the ratio can
			// drop below 1 (a weight increase raises the true distance
			// above the stale route's old-topology cost), which Stretch
			// rightly treats as a metric bug in its own domain.
			var (
				buildWall time.Duration
				stale     stats.Sample
			)
			for r := 0; r < rebuilds; r++ {
				batch := muts[r*churn : (r+1)*churn]
				if _, err := top.Apply(batch...); err != nil {
					return fmt.Errorf("D1: %s churn %d: %w", kind, churn, err)
				}
				// Staleness window: the topology has moved, the serving
				// version has not. Sample stale answers against the true
				// distances of the mutated graph.
				if err := sampleStaleness(ctx, top, kind, batch, &stale); err != nil {
					return fmt.Errorf("D1: %s churn %d: %w", kind, churn, err)
				}
				v, _, err := top.Rebuild(ctx)
				if err != nil {
					return fmt.Errorf("D1: %s churn %d rebuild %d: %w", kind, churn, r, err)
				}
				buildWall += v.BuildWall
			}
			identical, err := coldIdentical(ctx, top, kind, scfg)
			if err != nil {
				return fmt.Errorf("D1: %s churn %d: %w", kind, churn, err)
			}
			if !identical {
				return fmt.Errorf("D1: %s churn %d: hot-swapped routes diverge from a cold build of the final graph", kind, churn)
			}
			maxPause := top.Swapper().MaxPause()
			tb.AddRow(kind, n, churn, rebuilds,
				(buildWall / time.Duration(rebuilds)).Round(time.Microsecond).String(),
				maxPause.String(),
				maxPause < time.Millisecond,
				stale.Mean(), stale.Max(), identical)
		}
	}
	return cfg.emit(w, tb,
		"expected: swap pause ≪ 1ms (the pointer store; rebuild cost is background wall time),",
		"stale stretch grows with churn (weights moved under the served tables), cold-identical always true")
}

// sampleStaleness routes a strided pair sample on the CURRENT (stale)
// version and accumulates cost/d_new over the mutated graph's true
// distances — the stretch clients experience between a topology change
// and the swap that absorbs it.
func sampleStaleness(ctx context.Context, top *dynamic.Topology, kind string, pending []dynamic.Mutation, acc *stats.Sample) error {
	cur := top.Current()
	gOld := cur.Graph()
	gNew, err := dynamic.Replay(gOld, pending)
	if err != nil {
		return err
	}
	for s := 0; s < gOld.N(); s += 29 {
		srcOld := graph.NodeID(s)
		srcNew, ok := gNew.Lookup(gOld.Name(srcOld))
		if !ok {
			continue
		}
		rows := sssp.From(gNew, srcNew)
		for d := 1; d < gOld.N(); d += 31 {
			dstOld := graph.NodeID(d)
			if dstOld == srcOld {
				continue
			}
			dstNew, ok := gNew.Lookup(gOld.Name(dstOld))
			if !ok {
				continue
			}
			res, err := cur.Route(ctx, kind, gOld.Name(srcOld), gOld.Name(dstOld))
			if err != nil {
				return err
			}
			dNew := rows.Dist[dstNew]
			if !res.Delivered || dNew <= 0 || math.IsInf(dNew, 1) {
				continue
			}
			acc.Add(res.Cost / dNew)
		}
	}
	return nil
}

// coldIdentical verifies the serving version routes bit-identically
// (delivery, cost, hops, header bits) to a scheme built cold over the
// final graph with the same config.
func coldIdentical(ctx context.Context, top *dynamic.Topology, kind string, scfg schemes.Config) (bool, error) {
	v := top.Current()
	g := v.Graph()
	cold, err := schemes.Build(g, sssp.AllPairsParallel(g, 0), scfg)
	if err != nil {
		return false, err
	}
	eng := sim.NewEngine(g)
	for s := 0; s < g.N(); s += 17 {
		for d := 0; d < g.N(); d += 13 {
			src := graph.NodeID(s)
			dstName := g.Name(graph.NodeID(d))
			hot, err := v.Route(ctx, kind, g.Name(src), dstName)
			if err != nil {
				return false, err
			}
			want, err := eng.RouteCtx(ctx, cold, src, dstName)
			if err != nil {
				return false, err
			}
			if hot.Delivered != want.Delivered || hot.Cost != want.Cost ||
				hot.Hops != want.Hops || hot.MaxHeaderBits != want.MaxHeaderBits {
				return false, nil
			}
		}
	}
	return true, nil
}
