// Command routesim builds the paper's scheme over a generated network
// and traces individual routes, printing the per-phase breakdown of
// the §3 iterative protocol — a debugging lens on the scheme.
//
//	routesim -n 200 -k 3 -src 5 -dst 120
//	routesim -n 200 -k 3 -pairs 10           # random sample
//	routesim -n 2000 -k 4 -save net.crsc     # build once, persist
//	routesim -load net.crsc -pairs 10        # trace without rebuilding
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"compactroute/internal/codec"
	"compactroute/internal/core"
	"compactroute/internal/gen"
	"compactroute/internal/gio"
	"compactroute/internal/graph"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
	"compactroute/internal/viz"
	"compactroute/internal/xrand"
)

func main() {
	n := flag.Int("n", 128, "node count")
	k := flag.Int("k", 3, "trade-off parameter")
	p := flag.Float64("p", 0.06, "gnp edge probability")
	seed := flag.Uint64("seed", 1, "seed")
	src := flag.Int("src", -1, "source id (with -dst)")
	dst := flag.Int("dst", -1, "destination id (with -src)")
	pairs := flag.Int("pairs", 5, "random pairs to trace when -src/-dst unset")
	sfactor := flag.Float64("sfactor", 1, "landmark S-set constant (paper: 16)")
	graphFile := flag.String("graph", "", "route over a graph file (gio text format) instead of generating one")
	saveFile := flag.String("save", "", "persist the built scheme to this file (codec binary format; serve it with cmd/routed)")
	loadFile := flag.String("load", "", "load a persisted scheme instead of building one (skips APSP and construction)")
	dotFile := flag.String("dot", "", "write the last traced route as Graphviz DOT to this file")
	measure := flag.Int("measure", 0, "also measure the stretch distribution over a 1/N-strided sample of sources, fanned across all cores (0: off; loaded schemes pay one APSP)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "routesim:", err)
		os.Exit(1)
	}

	var (
		g   *graph.Graph
		all []*sssp.Result // nil when the scheme was loaded
		s   *core.Scheme
	)
	if *loadFile != "" {
		if *graphFile != "" || *saveFile != "" {
			fail(fmt.Errorf("-load excludes -graph and -save"))
		}
		f, err := os.Open(*loadFile)
		if err != nil {
			fail(err)
		}
		start := time.Now()
		s, err = codec.Decode(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		g = s.G()
		fmt.Printf("scheme %s loaded from %s in %v: max table %d bits/node\n",
			s.Name(), *loadFile, time.Since(start).Round(time.Millisecond), s.MaxTableBits())
	} else {
		if *graphFile != "" {
			f, err := os.Open(*graphFile)
			if err != nil {
				fail(err)
			}
			g, err = gio.Read(f)
			f.Close()
			if err != nil {
				fail(err)
			}
		} else {
			g = gen.Gnp(*seed, *n, *p, gen.Uniform(1, 8))
		}
		all = sssp.AllPairs(g)
		var err error
		s, err = core.BuildWithAPSP(g, all, core.Params{K: *k, Seed: *seed, SFactor: *sfactor})
		if err != nil {
			fail(err)
		}
		fmt.Printf("scheme %s over gnp(n=%d, p=%.3f): max table %d bits/node\n",
			s.Name(), g.N(), *p, s.MaxTableBits())
		if *saveFile != "" {
			f, err := os.Create(*saveFile)
			if err != nil {
				fail(err)
			}
			if err := codec.Encode(f, s); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("saved scheme to %s (serve it with: routed -scheme %s)\n", *saveFile, *saveFile)
		}
	}
	fmt.Printf("build report: %+v\n\n", s.Report)

	if *measure > 0 {
		if all == nil {
			all = sssp.AllPairsParallel(g, 0) // loaded scheme: metric absent
		}
		t0 := time.Now()
		st, err := sim.Measure(g, all, s, *measure, 0, true)
		if err != nil {
			fail(err)
		}
		fmt.Printf("stretch (stride %d, all cores, %v): %s\n\n",
			*measure, time.Since(t0).Round(time.Millisecond), st)
	}

	// shortest returns d(u,v), computing single-source results lazily
	// when the scheme was loaded without the metric.
	perSource := make(map[graph.NodeID]*sssp.Result)
	shortest := func(u, v graph.NodeID) float64 {
		if all != nil {
			return all[u].Dist[v]
		}
		r, ok := perSource[u]
		if !ok {
			r = sssp.From(g, u)
			perSource[u] = r
		}
		return r.Dist[v]
	}

	var lastPath []graph.NodeID
	trace := func(u, v graph.NodeID) {
		ok, phases, total, path, err := s.RouteTracePath(u, g.Name(v))
		if err != nil {
			fmt.Fprintln(os.Stderr, "routesim:", err)
			os.Exit(1)
		}
		lastPath = path
		d := shortest(u, v)
		fmt.Printf("route %d → %d (names %#x → %#x)\n", u, v, g.Name(u), g.Name(v))
		for _, ph := range phases {
			kind := "sparse"
			if ph.Dense {
				kind = "dense"
			}
			outcome := "miss"
			if ph.Found {
				outcome = "FOUND"
			}
			fmt.Printf("  phase %d [%s, a(u,i)=%d]: cost %.3f  %s\n",
				ph.Level, kind, ph.AUBits, ph.Cost, outcome)
		}
		stretch := 0.0
		if d > 0 {
			stretch = total / d
		}
		fmt.Printf("  delivered=%v total=%.3f shortest=%.3f stretch=%.3f\n\n", ok, total, d, stretch)
	}

	if *src >= 0 && *dst >= 0 {
		if *src >= g.N() || *dst >= g.N() {
			fail(fmt.Errorf("node ids must be in [0, %d): got -src %d -dst %d", g.N(), *src, *dst))
		}
		trace(graph.NodeID(*src), graph.NodeID(*dst))
		writeDot(*dotFile, g, lastPath)
		return
	}
	r := xrand.New(*seed ^ 0xfeed)
	for i := 0; i < *pairs; i++ {
		u := graph.NodeID(r.Intn(g.N()))
		v := graph.NodeID(r.Intn(g.N()))
		if u == v {
			continue
		}
		trace(u, v)
	}
	writeDot(*dotFile, g, lastPath)
}

func writeDot(path string, g *graph.Graph, route []graph.NodeID) {
	if path == "" || route == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "routesim:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := viz.RouteDOT(f, g, route); err != nil {
		fmt.Fprintln(os.Stderr, "routesim:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote route visualization to %s\n", path)
}
