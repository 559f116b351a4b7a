package cover

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/sssp"
)

func sparsityBound(n, k int) int {
	return int(math.Ceil(2 * float64(k) * math.Pow(float64(n), 1/float64(k))))
}

func buildAndValidate(t *testing.T, g *graph.Graph, k int, rho float64) *Cover {
	t.Helper()
	c, err := Build(g, Params{K: k, Rho: rho})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(sparsityBound(g.N(), k)); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoverOnPath(t *testing.T) {
	g := gen.Path(1, 20, gen.Unit())
	for _, k := range []int{1, 2, 3} {
		for _, rho := range []float64{1, 3, 100} {
			c := buildAndValidate(t, g, k, rho)
			if len(c.Trees) == 0 {
				t.Fatal("no trees")
			}
		}
	}
}

func TestCoverOnGnp(t *testing.T) {
	g := gen.Gnp(2, 60, 0.06, gen.Uniform(1, 4))
	for _, k := range []int{1, 2, 3} {
		buildAndValidate(t, g, k, 2.5)
	}
}

func TestCoverOnGrid(t *testing.T) {
	g := gen.Grid(3, 7, 7, gen.Unit())
	buildAndValidate(t, g, 2, 2)
}

func TestCoverOnStarAndRing(t *testing.T) {
	buildAndValidate(t, gen.Star(4, 25, gen.Uniform(1, 3)), 2, 1.5)
	buildAndValidate(t, gen.Ring(5, 24, gen.Unit()), 3, 4)
}

func TestCoverHugeRhoIsOneCluster(t *testing.T) {
	g := gen.Gnp(6, 40, 0.1, gen.Unit())
	c := buildAndValidate(t, g, 2, 1e6)
	if len(c.Trees) != 1 {
		t.Fatalf("huge ρ produced %d trees", len(c.Trees))
	}
	if c.Trees[0].Len() != g.N() {
		t.Fatal("single cluster does not span graph")
	}
}

func TestCoverTinyRho(t *testing.T) {
	// ρ below the minimum edge weight: balls are singletons; every
	// node still needs a home tree.
	g := gen.Gnp(7, 30, 0.1, gen.Uniform(2, 5))
	c := buildAndValidate(t, g, 2, 0.5)
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if c.Home(v) < 0 {
			t.Fatalf("node %d has no home", v)
		}
	}
}

func TestCoverDisconnected(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode(uint64(i))
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g, _ := b.Build()
	c, err := Build(g, Params{K: 2, Rho: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(sparsityBound(g.N(), 2)); err != nil {
		t.Fatal(err)
	}
	// No tree may span both components.
	for i, tr := range c.Trees {
		hasLo, hasHi := false, false
		for j := 0; j < tr.Len(); j++ {
			if tr.Node(j) <= 2 {
				hasLo = true
			} else {
				hasHi = true
			}
		}
		if hasLo && hasHi {
			t.Fatalf("tree %d spans components", i)
		}
	}
}

func TestHomeTreeContainsBall(t *testing.T) {
	// Validate() already checks this; exercise the accessor shape too.
	g := gen.Geometric(8, 50, 0.25)
	c := buildAndValidate(t, g, 2, 1.8)
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		found := false
		for _, ti := range c.TreesOf(v) {
			if int(ti) == c.Home(v) {
				found = true
			}
			if !c.Trees[ti].Contains(v) {
				t.Fatalf("membership list wrong for %d", v)
			}
		}
		if !found {
			t.Fatalf("home tree of %d not in its membership list", v)
		}
	}
}

func TestRadiusAndEdgeBoundsReported(t *testing.T) {
	g := gen.Gnp(9, 50, 0.08, gen.Uniform(1, 6))
	k, rho := 3, 3.0
	c := buildAndValidate(t, g, k, rho)
	if c.MaxRadius() > float64(2*k+1)*rho+1e-9 {
		t.Fatalf("MaxRadius %v exceeds bound", c.MaxRadius())
	}
	if c.MaxEdge() > 2*rho+1e-9 {
		t.Fatalf("MaxEdge %v exceeds 2ρ", c.MaxEdge())
	}
	if c.Rho() != rho || c.K() != k {
		t.Fatal("accessors wrong")
	}
}

func TestBadParamsRejected(t *testing.T) {
	g := gen.Path(10, 5, gen.Unit())
	if _, err := Build(g, Params{K: 0, Rho: 1}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Build(g, Params{K: 2, Rho: 0}); err == nil {
		t.Fatal("ρ=0 accepted")
	}
	if _, err := Build(g, Params{K: 2, Rho: math.Inf(1)}); err == nil {
		t.Fatal("ρ=∞ accepted")
	}
}

func TestAspectLadderCover(t *testing.T) {
	// Heavy-tailed weights: covers at a mid scale must keep edges ≤ 2ρ.
	g := gen.AspectLadder(11, 2, 4, 12)
	c := buildAndValidate(t, g, 2, 16)
	if c.MaxEdge() > 32+1e-9 {
		t.Fatalf("ladder cover uses edge %v > 2ρ", c.MaxEdge())
	}
}

func TestSingleNode(t *testing.T) {
	g := gen.Path(12, 1, gen.Unit())
	c, err := Build(g, Params{K: 2, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Trees) != 1 || c.Trees[0].Len() != 1 || c.Home(0) != 0 {
		t.Fatal("single node cover malformed")
	}
}

func TestMemberFilteredCover(t *testing.T) {
	// Cover only the even-index nodes of a grid; trees must stay
	// inside the member set and satisfy all properties in the induced
	// metric.
	g := gen.Grid(13, 6, 6, gen.Unit())
	member := make([]bool, g.N())
	for i := 0; i < g.N(); i += 2 {
		member[i] = true
	}
	c, err := Build(g, Params{K: 2, Rho: 2, Member: member})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(sparsityBound(g.N(), 2)); err != nil {
		t.Fatal(err)
	}
	for _, tr := range c.Trees {
		for i := 0; i < tr.Len(); i++ {
			if !member[tr.Node(i)] {
				t.Fatalf("tree contains non-member %d", tr.Node(i))
			}
		}
	}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if member[v] && c.Home(v) < 0 {
			t.Fatalf("member %d lacks home tree", v)
		}
		if !member[v] && c.Home(v) >= 0 {
			t.Fatalf("non-member %d has home tree", v)
		}
	}
}

func TestMemberFilterLengthValidated(t *testing.T) {
	g := gen.Path(14, 5, gen.Unit())
	if _, err := Build(g, Params{K: 2, Rho: 1, Member: []bool{true}}); err == nil {
		t.Fatal("short member filter accepted")
	}
}

// TestMetricBallsEqualSearch holds each ball read off the metric to the
// truncated search it replaces, as a set, for every node: on weights
// with exact ties at the radius (unit and power-of-two) and without,
// at radii from below the lightest edge to beyond the diameter, and at
// every distance some node lies at exactly.
func TestMetricBallsEqualSearch(t *testing.T) {
	weights := []struct {
		name string
		w    gen.Weighting
	}{{"uniform", gen.Uniform(1, 8)}, {"pow2", gen.PowerOfTwo(10)}, {"unit", gen.Unit()}}
	for _, wt := range weights {
		for seed := uint64(1); seed <= 3; seed++ {
			g := gen.Gnp(seed, 72, 5.0/72, wt.w)
			rows := sssp.AllPairs(g)
			all := make([]bool, g.N())
			for v := range all {
				all[v] = true
			}
			diam := 0.0
			for _, r := range rows {
				diam = math.Max(diam, r.Radius())
			}
			radii := []float64{0.5, 1, 1.5, 2.5, diam / 2, diam, 2 * diam}
			for _, v := range rows[0].Order[1:] {
				radii = append(radii, rows[0].Dist[v])
			}
			for _, rho := range radii {
				for v := range rows {
					got := setOf(rows[v].Ball(rho))
					want := setOf(filteredBall(g, graph.NodeID(v), all, rho))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d ρ=%v: B(%d) from the metric %v, searched %v", wt.name, seed, rho, v, got, want)
					}
				}
			}
		}
	}
}

// setOf returns the ball's nodes in id order.
func setOf(ball []graph.NodeID) []graph.NodeID {
	out := slices.Clone(ball)
	slices.Sort(out)
	return out
}

// TestCoverFromMetricMatchesSearch builds each cover twice, with and
// without the metric, and requires the same trees and home trees. A
// strict member filter must ignore the metric and search: poisoned
// rows, whose every ball is the lone center, change nothing there,
// while over the whole graph they do change the cover.
func TestCoverFromMetricMatchesSearch(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g := gen.Gnp(seed, 90, 5.0/90, gen.Uniform(1, 6))
		rows := sssp.AllPairs(g)
		poisoned := make([]*sssp.Result, len(rows))
		for v, r := range rows {
			poisoned[v] = &sssp.Result{Source: r.Source, Dist: r.Dist, Order: r.Order[:1]}
		}
		strict, full := make([]bool, g.N()), make([]bool, g.N())
		for v := range strict {
			strict[v], full[v] = v%4 != 0, true
		}
		for _, rho := range []float64{1, 3, 6, 12} {
			build := func(member []bool, metric []*sssp.Result) *Snapshot {
				t.Helper()
				c, err := Build(g, Params{K: 3, Rho: rho, UniverseN: g.N(), Member: member, Metric: metric})
				if err != nil {
					t.Fatal(err)
				}
				return c.Snapshot()
			}
			searched := build(nil, nil)
			// A filter admitting every node is the whole graph too.
			for _, member := range [][]bool{nil, full} {
				if !reflect.DeepEqual(build(member, rows), searched) {
					t.Fatalf("seed %d ρ=%v: the cover read off the metric differs from the searched one", seed, rho)
				}
				if rho >= 3 && reflect.DeepEqual(build(member, poisoned), searched) {
					t.Fatalf("seed %d ρ=%v: poisoned rows left the whole-graph cover unchanged, so it did not read them", seed, rho)
				}
			}
			searched = build(strict, nil)
			if !reflect.DeepEqual(build(strict, rows), searched) || !reflect.DeepEqual(build(strict, poisoned), searched) {
				t.Fatalf("seed %d ρ=%v: a member-filtered cover read the metric", seed, rho)
			}
		}
	}
}

func TestMetricLengthValidated(t *testing.T) {
	g := gen.Path(15, 5, gen.Unit())
	if _, err := Build(g, Params{K: 2, Rho: 1, Metric: sssp.AllPairs(g)[:4]}); err == nil {
		t.Fatal("short metric accepted")
	}
}
