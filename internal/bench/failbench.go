package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"compactroute"
	"compactroute/internal/dynamic"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/schemes"
	"compactroute/internal/serve"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
	"compactroute/internal/stats"
)

// RunD2 measures resilience to transient failures (DESIGN.md §10):
// for every scheme kind × failure kind × failure rate, the delivery
// rate and stretch over the degraded network, raw (a packet dies at
// the first down element on its path) versus mitigated through the
// repair layer's best-of-both-directions selection. The stretch
// denominator is the shortest distance in the DEGRADED graph — the
// honest baseline once links are gone — with the healthy-graph mean
// alongside so the degradation itself is visible. A second table
// isolates flap damping: after a set of links flaps (fails and
// recovers), a damped router routes around the recently flapped
// elements while an undamped one walks right back across them.
func RunD2(ctx context.Context, w io.Writer, cfg Config) error {
	n, sStride, dStride := 256, 7, 11
	kinds := []string{
		schemes.KindPaper, schemes.KindFullTable, schemes.KindAPCover,
		schemes.KindLandmarkChain, schemes.KindTZ,
	}
	rates := []float64{0.02, 0.08}
	if cfg.Quick {
		n, sStride, dStride = 96, 5, 7
		kinds = []string{schemes.KindPaper, schemes.KindFullTable}
		rates = []float64{0.05}
	}
	failKinds := []struct {
		name    string
		profile dynamic.TraceProfile
		overN   bool // rate counts nodes, not edges
	}{
		{"edge", dynamic.TraceProfile{FailEdge: 1}, false},
		{"node", dynamic.TraceProfile{FailNode: 1}, true},
		{"mixed", dynamic.TraceProfile{FailEdge: 3, FailNode: 1}, false},
	}

	tb := stats.NewTable("D2: delivery and stretch under transient failures, raw vs best-of-both",
		"kind", "fail kind", "rate", "down e/n", "pairs",
		"deliv raw", "deliv +bob", "stretch healthy", "stretch raw", "stretch +bob")
	flapTb := stats.NewTable("D2: flap damping — served paths crossing recently flapped links",
		"kind", "flapped", "pairs", "flap-hit undamped", "flap-hit damped", "cost undamped", "cost damped")

	for ki, kind := range kinds {
		g := gen.Gnp(cfg.Seed+81, n, 8/float64(n), gen.Uniform(1, 8))
		nn := newNet(g)
		s, err := schemes.Build(nn.g, nn.apsp, schemes.Config{Kind: kind, K: 3, Seed: cfg.Seed, SFactor: 0.25})
		if err != nil {
			return fmt.Errorf("D2: %s: %w", kind, err)
		}
		for _, fk := range failKinds {
			for _, rate := range rates {
				base := g.M()
				if fk.overN {
					base = g.N()
				}
				count := int(rate * float64(base))
				if count < 1 {
					count = 1
				}
				trace, fs, err := dynamic.GenerateFaultTrace(g, count, cfg.Seed+uint64(ki)*131, fk.profile)
				if err != nil {
					return fmt.Errorf("D2: %s %s rate %g: %w", kind, fk.name, rate, err)
				}
				row, err := measureFaults(ctx, g, nn.apsp, s, trace, fs, sStride, dStride)
				if err != nil {
					return fmt.Errorf("D2: %s %s rate %g: %w", kind, fk.name, rate, err)
				}
				tb.AddRow(kind, fk.name, rate,
					fmt.Sprintf("%d/%d", len(fs.DownEdges()), len(fs.DownNodes())), row.pairs,
					row.delivRaw, row.delivBob,
					row.healthy.Mean(), row.raw.Mean(), row.bob.Mean())
			}
		}
		flap, err := measureFlap(ctx, g, s, cfg.Seed+uint64(ki)*137, sStride, dStride)
		if err != nil {
			return fmt.Errorf("D2: %s flap: %w", kind, err)
		}
		flapTb.AddRow(kind, flap.flapped, flap.pairs,
			flap.hitUndamped, flap.hitDamped, flap.costUndamped, flap.costDamped)
	}
	if err := cfg.emit(w, tb,
		"expected: deliv +bob ≥ deliv raw at every nonzero rate (the reverse walk dodges faults the",
		"forward walk hits); stretch columns are survivor-biased — only pairs that still deliver",
		"count, and those skew toward well-served routes, so degraded stretch can sit BELOW healthy"); err != nil {
		return err
	}
	return cfg.emit(w, flapTb,
		"expected: flap-hit damped ≤ undamped at slightly higher served cost — the damping penalty",
		"buys routes that avoid the links most likely to fail again")
}

// d2Row accumulates one (kind, failkind, rate) cell.
type d2Row struct {
	pairs              int
	delivRaw, delivBob float64
	healthy, raw, bob  stats.Sample
}

// traceRoute walks src→dst on eng and returns the result with the
// path converted to external names.
func traceRoute(ctx context.Context, eng *sim.Engine, s sim.Router, g *graph.Graph, src graph.NodeID, dstName uint64) (sim.Result, []uint64, error) {
	res, err := eng.RouteCtx(ctx, s, src, dstName)
	if err != nil {
		return sim.Result{}, nil, err
	}
	names := make([]uint64, len(res.Path))
	for i, id := range res.Path {
		names[i] = g.Name(id)
	}
	return res, names, nil
}

// degradedGraph builds the up-subgraph: every up node, every edge
// whose pair and endpoints are all up. The generator keeps this
// connected, so its distances are finite and the honest stretch
// denominator under the fault set.
func degradedGraph(g *graph.Graph, fs *dynamic.FaultSet) (*graph.Graph, error) {
	b := graph.NewBuilder()
	for u := 0; u < g.N(); u++ {
		if !fs.NodeDown(g.Name(graph.NodeID(u))) {
			b.AddNode(g.Name(graph.NodeID(u)))
		}
	}
	var addErr error
	g.ForEachEdge(func(u, v graph.NodeID, w float64) bool {
		un, vn := g.Name(u), g.Name(v)
		if fs.EdgeDown(un, vn) { // also true when either endpoint is down
			return true
		}
		if err := b.AddEdge(b.AddNode(un), b.AddNode(vn), w); err != nil {
			addErr = err
			return false
		}
		return true
	})
	if addErr != nil {
		return nil, addErr
	}
	return b.Build()
}

// repairerOver wraps scheme s in a repair layer whose walks run on a
// fresh traced engine per call (the layer routes both directions
// concurrently). The clock is pinned so damping penalties — and with
// them every tie-break — are identical run to run.
func repairerOver(g *graph.Graph, s sim.Router, o serve.RepairOptions) *serve.Repairer {
	t0 := time.Unix(0, 0)
	o.Now = func() time.Time { return t0 }
	return serve.NewRepairer(func(ctx context.Context, srcName, dstName uint64) (compactroute.Result, []uint64, error) {
		src, ok := g.Lookup(srcName)
		if !ok {
			return compactroute.Result{}, nil, fmt.Errorf("D2: unknown source %d", srcName)
		}
		eng := sim.NewEngine(g)
		eng.Trace = true
		res, path, err := traceRoute(ctx, eng, s, g, src, dstName)
		if err != nil {
			return compactroute.Result{}, nil, err
		}
		return compactroute.Result{Delivered: res.Delivered, Cost: res.Cost, Hops: res.Hops}, path, nil
	}, o)
}

// measureFaults sweeps strided up-endpoint pairs and accumulates raw
// and best-of-both delivery and stretch under the fault set fs, the
// projection of the failure trace.
func measureFaults(ctx context.Context, g *graph.Graph, apsp []*sssp.Result, s sim.Router, trace []dynamic.Mutation, fs *dynamic.FaultSet, sStride, dStride int) (*d2Row, error) {
	deg, err := degradedGraph(g, fs)
	if err != nil {
		return nil, err
	}
	rep := repairerOver(g, s, serve.RepairOptions{BestOfBoth: true})
	rep.Observe(trace...)
	eng := sim.NewEngine(g)
	eng.Trace = true

	row := &d2Row{}
	rawOK, bobOK := 0, 0
	for si := 0; si < g.N(); si += sStride {
		src := graph.NodeID(si)
		srcName := g.Name(src)
		if fs.NodeDown(srcName) {
			continue
		}
		srcDeg, _ := deg.Lookup(srcName)
		degDist := sssp.From(deg, srcDeg)
		for di := 1; di < g.N(); di += dStride {
			dst := graph.NodeID(di)
			if dst == src {
				continue
			}
			dstName := g.Name(dst)
			if fs.NodeDown(dstName) {
				continue
			}
			dstDeg, _ := deg.Lookup(dstName)
			dDeg := degDist.Dist[dstDeg]
			if dDeg <= 0 || math.IsInf(dDeg, 1) {
				continue
			}
			row.pairs++
			if dHealthy := apsp[src].Dist[dst]; dHealthy > 0 {
				// Healthy reference on the same pair sample: what the
				// scheme's stretch was before anything failed.
				res, err := eng.RouteCtx(ctx, s, src, dstName)
				if err != nil {
					return nil, err
				}
				if res.Delivered {
					row.healthy.Add(res.Cost / dHealthy)
				}
			}
			// Raw: the forward walk either dodges every down element by
			// luck or the packet dies at the first one it crosses.
			res, path, err := traceRoute(ctx, eng, s, g, src, dstName)
			if err != nil {
				return nil, err
			}
			if res.Delivered && !fs.Blocks(path) {
				rawOK++
				row.raw.Add(res.Cost / dDeg)
			}
			// Mitigated: the repair layer serves whichever direction is
			// clear and cheaper, or reports unreachable.
			bres, err := rep.RouteByName(ctx, srcName, dstName)
			if err == nil && bres.Delivered {
				bobOK++
				row.bob.Add(bres.Cost / dDeg)
			}
		}
	}
	if row.pairs > 0 {
		row.delivRaw = float64(rawOK) / float64(row.pairs)
		row.delivBob = float64(bobOK) / float64(row.pairs)
	}
	return row, nil
}

// flapRow is one kind's flap-damping measurement.
type flapRow struct {
	flapped, pairs           int
	hitUndamped, hitDamped   float64
	costUndamped, costDamped float64
}

// measureFlap fails a connectivity-safe link set, recovers it, and
// compares a damped and an undamped best-of-both router on the fully
// recovered network: both always deliver (nothing is down), but the
// damped one pays its penalty to route around the links that just
// flapped. Reported per router: the fraction of served paths crossing
// a flapped link and the mean served cost.
func measureFlap(ctx context.Context, g *graph.Graph, s sim.Router, seed uint64, sStride, dStride int) (*flapRow, error) {
	count := g.M() / 25
	if count < 2 {
		count = 2
	}
	trace, fs, err := dynamic.GenerateFaultTrace(g, count, seed, dynamic.TraceProfile{FailEdge: 1})
	if err != nil {
		return nil, err
	}
	flapped := make(map[[2]uint64]bool, count)
	for _, e := range fs.DownEdges() {
		flapped[e] = true
	}
	// DampPenalty far above any path cost: a damped route crosses a
	// flapped link only when every alternative does too.
	damped := repairerOver(g, s, serve.RepairOptions{BestOfBoth: true, DampPenalty: 1e9, DampHalfLife: time.Hour})
	undamped := repairerOver(g, s, serve.RepairOptions{BestOfBoth: true})
	flap := append(trace, fs.RecoveryMutations()...)
	damped.Observe(flap...)
	undamped.Observe(flap...)

	crosses := func(path []uint64) bool {
		for i := 1; i < len(path); i++ {
			k := [2]uint64{path[i-1], path[i]}
			if k[0] > k[1] {
				k[0], k[1] = k[1], k[0]
			}
			if flapped[k] {
				return true
			}
		}
		return false
	}
	row := &flapRow{flapped: len(flapped)}
	hitU, hitD := 0, 0
	var costU, costD stats.Sample
	for si := 0; si < g.N(); si += sStride {
		srcName := g.Name(graph.NodeID(si))
		for di := 1; di < g.N(); di += dStride {
			if di == si {
				continue
			}
			dstName := g.Name(graph.NodeID(di))
			ures, upath, err := undamped.RoutePathByName(ctx, srcName, dstName)
			if err != nil {
				return nil, err
			}
			dres, dpath, err := damped.RoutePathByName(ctx, srcName, dstName)
			if err != nil {
				return nil, err
			}
			if !ures.Delivered || !dres.Delivered {
				continue
			}
			row.pairs++
			if crosses(upath) {
				hitU++
			}
			if crosses(dpath) {
				hitD++
			}
			costU.Add(ures.Cost)
			costD.Add(dres.Cost)
		}
	}
	if row.pairs > 0 {
		row.hitUndamped = float64(hitU) / float64(row.pairs)
		row.hitDamped = float64(hitD) / float64(row.pairs)
	}
	row.costUndamped, row.costDamped = costU.Mean(), costD.Mean()
	return row, nil
}
