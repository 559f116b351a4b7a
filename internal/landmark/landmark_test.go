package landmark

import (
	"testing"

	"compactroute/internal/decomp"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/sssp"
)

func build(t *testing.T, g *graph.Graph, k int, sFactor float64, seed uint64) (*Hierarchy, *decomp.Decomposition) {
	t.Helper()
	return buildWith(t, g, Params{K: k, SFactor: sFactor, Seed: seed})
}

func buildWith(t *testing.T, g *graph.Graph, p Params) (*Hierarchy, *decomp.Decomposition) {
	t.Helper()
	all := sssp.AllPairs(g)
	dec, err := decomp.Build(g, all, decomp.Params{K: p.K})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(g, all, dec, p)
	if err != nil {
		t.Fatal(err)
	}
	return h, dec
}

func TestRanksWellFormed(t *testing.T) {
	g := gen.Gnp(1, 200, 0.02, gen.Uniform(1, 4))
	k := 3
	h, _ := build(t, g, k, 16, 7)
	counts := make([]int, k)
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		r := h.Rank(v)
		if r < 0 || r > k-1 {
			t.Fatalf("rank(%d) = %d out of [0,%d]", v, r, k-1)
		}
		counts[r]++
	}
	// C_0 = V.
	if h.LevelSize(0) != g.N() {
		t.Fatalf("|C_0| = %d", h.LevelSize(0))
	}
	// Chain: |C_i| non-increasing.
	for i := 1; i < k; i++ {
		if h.LevelSize(i) > h.LevelSize(i-1) {
			t.Fatal("C chain not nested")
		}
	}
	if h.TopRank() > k-1 {
		t.Fatal("top rank out of range")
	}
}

func TestK1Degenerate(t *testing.T) {
	g := gen.Path(2, 10, gen.Unit())
	h, _ := build(t, g, 1, 16, 1)
	if h.TopRank() != 0 {
		t.Fatalf("k=1 top rank = %d", h.TopRank())
	}
	// S(u,0) must be all of V (capacity exceeds n).
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		if len(h.S(u, 0)) != g.N() {
			t.Fatalf("k=1: |S(%d,0)| = %d", u, len(h.S(u, 0)))
		}
	}
}

func TestSSetsAreClosestLandmarks(t *testing.T) {
	g := gen.Gnp(3, 100, 0.05, gen.Uniform(1, 5))
	k := 3
	h, _ := build(t, g, k, 0.05, 3) // small factor so S is a strict subset
	all := sssp.AllPairs(g)
	for u := graph.NodeID(0); int(u) < g.N(); u += 7 {
		for i := 0; i <= h.TopRank(); i++ {
			s := h.S(u, i)
			if len(s) == 0 {
				t.Fatalf("S(%d,%d) empty", u, i)
			}
			if len(s) > h.SCapAt(i) {
				t.Fatalf("S(%d,%d) overflows cap", u, i)
			}
			// Every member has rank ≥ i.
			for _, c := range s {
				if h.Rank(c) < i {
					t.Fatalf("S(%d,%d) contains rank-%d node", u, i, h.Rank(c))
				}
			}
			// No closer rank-≥i node is excluded.
			last := s[len(s)-1]
			r := all[u]
			for v := graph.NodeID(0); int(v) < g.N(); v++ {
				if h.Rank(v) >= i && r.Dist[v] < r.Dist[last] {
					found := false
					for _, c := range s {
						if c == v {
							found = true
							break
						}
					}
					if !found && len(s) == h.SCapAt(i) {
						t.Fatalf("closer landmark %d missing from full S(%d,%d)", v, u, i)
					}
				}
			}
		}
	}
}

func TestInSMatchesMembers(t *testing.T) {
	g := gen.Geometric(4, 60, 0.25)
	h, _ := build(t, g, 2, 0.2, 5)
	for c := graph.NodeID(0); int(c) < g.N(); c++ {
		for _, v := range h.Members(c) {
			if !h.InS(v, c) {
				t.Fatalf("Members/InS disagree for c=%d v=%d", c, v)
			}
		}
	}
	// Spot-check the converse on a few pairs.
	for u := graph.NodeID(0); int(u) < g.N(); u += 11 {
		for i := 0; i <= h.TopRank(); i++ {
			for _, c := range h.S(u, i) {
				if !h.InS(u, c) {
					t.Fatalf("c ∈ S(u,%d) but InS false", i)
				}
			}
		}
	}
}

func TestCenterProperties(t *testing.T) {
	g := gen.Gnp(5, 80, 0.06, gen.Uniform(1, 3))
	k := 3
	h, dec := build(t, g, k, 16, 9)
	all := dec.Results()
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		for i := 0; i <= k; i++ {
			m := h.M(u, i)
			c := h.Center(u, i)
			if h.Rank(c) < m {
				t.Fatalf("center rank %d < m(u,i)=%d", h.Rank(c), m)
			}
			// m(u,i) is realized inside A(u,i).
			found := false
			for _, v := range dec.A(u, i) {
				if h.Rank(v) >= m {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("m(%d,%d)=%d not present in A", u, i, m)
			}
			// The center is the closest such landmark, so it is within
			// the A(u,i) radius for i ≥ 1.
			if i >= 1 && all[u].Dist[c] > dec.ARadius(u, i)+1e-9 {
				t.Fatalf("center %d outside A(%d,%d)", c, u, i)
			}
		}
	}
}

func TestCenterAtLevelZeroIsSelfish(t *testing.T) {
	// A(u,0) = {u}, so m(u,0) = rank(u) and the closest rank-≥rank(u)
	// node is u itself.
	g := gen.Ring(6, 20, gen.Unit())
	h, _ := build(t, g, 2, 16, 11)
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		if h.Center(u, 0) != u {
			t.Fatalf("c(%d,0) = %d, want self", u, h.Center(u, 0))
		}
	}
}

func TestTerminalCoverage(t *testing.T) {
	// Every node's S must contain all top-rank landmarks, so the
	// terminal routing phase always has a spanning tree.
	g := gen.Gnp(7, 150, 0.03, gen.Uniform(1, 4))
	h, _ := build(t, g, 3, 0.05, 13) // tiny factor to stress the bump
	top := h.TopRank()
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		s := h.S(u, top)
		want := h.LevelSize(top)
		if len(s) != want {
			t.Fatalf("S(%d,top) has %d of %d top landmarks", u, len(s), want)
		}
	}
}

func TestClaimsHoldOnTypicalInstances(t *testing.T) {
	// Claims 1–2 are whp statements; with the paper's constants they
	// should hold outright on moderate instances.
	g := gen.Gnp(8, 120, 0.04, gen.Uniform(1, 5))
	k := 3
	h, dec := build(t, g, k, 16, 17)
	if checked, bad := h.VerifyClaim1(dec); bad != 0 {
		t.Fatalf("Claim 1: %d/%d violations", bad, checked)
	}
	if checked, bad := h.VerifyClaim2(dec); bad != 0 {
		t.Fatalf("Claim 2: %d/%d violations", bad, checked)
	}
}

func TestLemma3WithPaperConstants(t *testing.T) {
	// With SFactor=16 the sparse-neighborhood property should hold on
	// instances of this size (whp statement, deterministic seeds).
	for _, seed := range []uint64{1, 2, 3} {
		g := gen.Gnp(seed, 100, 0.05, gen.Uniform(1, 6))
		h, dec := build(t, g, 2, 16, seed)
		checked, bad := h.VerifyLemma3(dec)
		if checked == 0 {
			t.Fatal("Lemma 3 test vacuous")
		}
		if bad != 0 {
			t.Fatalf("seed %d: Lemma 3 %d/%d violations with paper constants", seed, bad, checked)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	g := gen.Path(9, 5, gen.Unit())
	all := sssp.AllPairs(g)
	dec, _ := decomp.Build(g, all, decomp.Params{K: 2})
	if _, err := Build(g, nil, dec, Params{K: 2}); err == nil {
		t.Fatal("nil results accepted")
	}
	if _, err := Build(g, all, dec, Params{K: 3}); err == nil {
		t.Fatal("k mismatch accepted")
	}
}

func TestDeterministicHierarchyClaim1ByConstruction(t *testing.T) {
	for _, seedG := range []uint64{1, 2, 3} {
		g := gen.Gnp(seedG, 90, 0.06, gen.Uniform(1, 5))
		all := sssp.AllPairs(g)
		dec, err := decomp.Build(g, all, decomp.Params{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		h, err := Build(g, all, dec, Params{K: 3, SFactor: 16, Deterministic: true})
		if err != nil {
			t.Fatal(err)
		}
		checked, bad := h.VerifyClaim1(dec)
		if bad != 0 {
			t.Fatalf("deterministic hierarchy violated Claim 1: %d/%d", bad, checked)
		}
		// Level sizes must shrink.
		for i := 1; i <= h.TopRank(); i++ {
			if h.LevelSize(i) > h.LevelSize(i-1) {
				t.Fatal("deterministic chain not nested")
			}
		}
	}
}

func TestDeterministicHierarchyIsSeedFree(t *testing.T) {
	g := gen.Geometric(4, 60, 0.25)
	all := sssp.AllPairs(g)
	dec, _ := decomp.Build(g, all, decomp.Params{K: 3})
	a, err := Build(g, all, dec, Params{K: 3, Seed: 1, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, all, dec, Params{K: 3, Seed: 999, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if a.Rank(v) != b.Rank(v) {
			t.Fatal("deterministic hierarchy depends on seed")
		}
	}
}

func TestDeterministicK1AndTiny(t *testing.T) {
	g := gen.Path(5, 6, gen.Unit())
	all := sssp.AllPairs(g)
	dec, _ := decomp.Build(g, all, decomp.Params{K: 1})
	h, err := Build(g, all, dec, Params{K: 1, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if h.TopRank() != 0 {
		t.Fatal("k=1 deterministic top rank wrong")
	}
}
