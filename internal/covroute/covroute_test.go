package covroute

import (
	"testing"

	"compactroute/internal/cover"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/sssp"
	"compactroute/internal/tree"
)

func buildSPT(t *testing.T, g *graph.Graph, root graph.NodeID) *tree.Tree {
	t.Helper()
	r := sssp.From(g, root)
	tr, err := tree.FromSPT(g, root, r.Parent)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func pathCost(t *testing.T, g *graph.Graph, path []graph.NodeID) float64 {
	t.Helper()
	c := 0.0
	for i := 0; i+1 < len(path); i++ {
		p := g.PortTo(path[i], path[i+1])
		if p < 0 {
			t.Fatalf("hop %d→%d not an edge", path[i], path[i+1])
		}
		c += g.EdgeAt(path[i], p).Weight
	}
	return c
}

// lemma7Bound is 4·rad(T) + 2k·maxE(T) with k=2 as a representative
// consumer; our implementation must stay within 4·rad alone.
func lemma7Bound(tr *tree.Tree) float64 {
	return 4 * tr.Radius()
}

func TestLookupFindsEveryMemberFromEveryMember(t *testing.T) {
	g := gen.Gnp(1, 50, 0.08, gen.Uniform(1, 4))
	tr := buildSPT(t, g, 0)
	s := New(tr, 99)
	for src := 0; src < tr.Len(); src += 3 {
		for dst := 0; dst < tr.Len(); dst++ {
			ext := g.Name(tr.Node(dst))
			found, path, err := s.Run(ext, tr.Node(src))
			if err != nil {
				t.Fatalf("lookup %d→%d: %v", src, dst, err)
			}
			if !found || path[len(path)-1] != tr.Node(dst) {
				t.Fatalf("lookup %d→%d failed", src, dst)
			}
			if cost := pathCost(t, g, path); cost > lemma7Bound(tr)+1e-9 {
				t.Fatalf("lookup %d→%d cost %v > 4·rad %v", src, dst, cost, lemma7Bound(tr))
			}
		}
	}
}

func TestNegativeLookupClosedPath(t *testing.T) {
	g := gen.Gnp(2, 40, 0.1, gen.Uniform(1, 3))
	tr := buildSPT(t, g, 5)
	s := New(tr, 7)
	for src := 0; src < tr.Len(); src += 2 {
		for q := uint64(0); q < 20; q++ {
			ext := 0xbeef0000 + q*104729
			if _, ok := g.Lookup(ext); ok {
				continue
			}
			found, path, err := s.Run(ext, tr.Node(src))
			if err != nil {
				t.Fatal(err)
			}
			if found {
				t.Fatalf("phantom name found")
			}
			if path[len(path)-1] != tr.Node(src) {
				t.Fatal("negative lookup did not return to source")
			}
			if cost := pathCost(t, g, path); cost > lemma7Bound(tr)+1e-9 {
				t.Fatalf("negative lookup cost %v > bound %v", cost, lemma7Bound(tr))
			}
		}
	}
}

func TestLookupOnPrunedTree(t *testing.T) {
	// Cover trees contain a subset of the graph; names of non-members
	// must be reported missing.
	g := gen.Gnp(3, 60, 0.07, gen.Uniform(1, 5))
	r := sssp.From(g, 0)
	targets := []graph.NodeID{3, 9, 27, 42}
	tr, err := tree.FromPaths(g, r, targets)
	if err != nil {
		t.Fatal(err)
	}
	s := New(tr, 3)
	for _, v := range targets {
		found, path, err := s.Run(g.Name(v), 0)
		if err != nil || !found || path[len(path)-1] != v {
			t.Fatalf("member %d not found: %v", v, err)
		}
	}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if tr.Contains(v) {
			continue
		}
		found, _, err := s.Run(g.Name(v), 0)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatalf("non-member %d found", v)
		}
	}
}

func TestCoverTreesEndToEnd(t *testing.T) {
	// Drive Lemma 7 on actual Lemma 6 cover trees: for every node v
	// and home tree W, every member of B(v,ρ) must be reachable within
	// the combined bound.
	g := gen.Geometric(4, 45, 0.25)
	k, rho := 2, 1.5
	c, err := cover.Build(g, cover.Params{K: k, Rho: rho})
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		home := c.Trees[c.Home(v)]
		s := New(home, 11)
		r := sssp.From(g, v)
		for _, w := range r.Ball(rho) {
			found, path, err := s.Run(g.Name(w), v)
			if err != nil || !found {
				t.Fatalf("ball member %d not found from %d: %v", w, v, err)
			}
			bound := 4*home.Radius() + 2*float64(k)*home.MaxEdge() + 1e-9
			if cost := pathCost(t, g, path); cost > bound {
				t.Fatalf("cover lookup cost %v > lemma bound %v", cost, bound)
			}
		}
	}
}

func TestRendezvousLoadModest(t *testing.T) {
	g := gen.Gnp(5, 300, 0.02, gen.Unit())
	tr := buildSPT(t, g, 0)
	s := New(tr, 13)
	if load := s.MaxRendezvousLoad(); load > 12 {
		t.Fatalf("rendezvous load %d unexpectedly high", load)
	}
}

func TestStorageBitsSane(t *testing.T) {
	g := gen.Gnp(6, 100, 0.05, gen.Unit())
	tr := buildSPT(t, g, 0)
	s := New(tr, 1)
	total := 0
	for i := 0; i < tr.Len(); i++ {
		b := int(s.StorageBits(i))
		if b <= 0 {
			t.Fatalf("StorageBits(%d) = %d", i, b)
		}
		total += b
	}
	// Aggregate storage is O(m · polylog): sanity ceiling.
	if total > 1<<22 {
		t.Fatalf("aggregate storage %d absurd", total)
	}
}

func TestNewRouteRejectsNonMember(t *testing.T) {
	g := gen.Star(7, 10, gen.Unit())
	r := sssp.From(g, 1)
	tr, _ := tree.FromPaths(g, r, []graph.NodeID{2})
	s := New(tr, 5)
	if _, err := s.NewRoute(12345, 7); err == nil {
		t.Fatal("non-member source accepted")
	}
}

// TestStepRejectsWrongPosition steps lookups hop by hop and, before
// each real step, offers a copy of the header at a member other than
// the one it is at: every phase must refuse to route on that member's
// record.
func TestStepRejectsWrongPosition(t *testing.T) {
	g := gen.Gnp(11, 60, 0.07, gen.Uniform(1, 4))
	tr := buildSPT(t, g, 3)
	s := New(tr, 4)
	phases := map[phase]bool{}
	for src := 0; src < tr.Len(); src += 7 {
		// Members and names outside the tree, so lookups run all three
		// phases.
		for _, ext := range []uint64{g.Name(tr.Node((src * 5) % tr.Len())), 0xfeedface + uint64(src)} {
			h, err := s.NewRoute(ext, tr.Node(src))
			if err != nil {
				t.Fatal(err)
			}
			cur := tr.Node(src)
			for steps := 0; ; steps++ {
				if steps > 8*tr.Len() {
					t.Fatalf("lookup %#x from %d not terminating", ext, src)
				}
				phases[h.phase] = true
				wrong := *h
				if _, _, err := s.Step(tr.Node((int(h.at)+1)%tr.Len()), &wrong); err == nil {
					t.Fatalf("lookup %#x from %d: Step at a member other than position %d did not error (phase %d)", ext, src, h.at, h.phase)
				}
				act, port, err := s.Step(cur, h)
				if err != nil {
					t.Fatal(err)
				}
				if act != Forward {
					break
				}
				cur = g.EdgeAt(cur, port).To
			}
		}
	}
	if len(phases) != 3 {
		t.Fatalf("lookups ran phases %v, want all three", phases)
	}
}

func TestSingleNodeTree(t *testing.T) {
	g := gen.Path(8, 1, gen.Unit())
	tr, err := tree.FromSPT(g, 0, sssp.From(g, 0).Parent)
	if err != nil {
		t.Fatal(err)
	}
	s := New(tr, 2)
	found, _, err := s.Run(g.Name(0), 0)
	if err != nil || !found {
		t.Fatal("self lookup failed")
	}
	found, _, err = s.Run(999, 0)
	if err != nil || found {
		t.Fatal("phantom in single node tree")
	}
}

func TestHeaderBitsBounded(t *testing.T) {
	g := gen.Gnp(9, 120, 0.04, gen.Unit())
	tr := buildSPT(t, g, 0)
	s := New(tr, 3)
	h, err := s.NewRoute(g.Name(5), tr.Node(10))
	if err != nil {
		t.Fatal(err)
	}
	if h.HeaderBits() <= 0 || h.HeaderBits() > 8192 {
		t.Fatalf("header bits = %d", h.HeaderBits())
	}
}

func TestDifferentSeedsStillCorrect(t *testing.T) {
	g := gen.Ring(10, 30, gen.Uniform(1, 2))
	tr := buildSPT(t, g, 0)
	for seed := uint64(0); seed < 5; seed++ {
		s := New(tr, seed)
		for dst := 0; dst < tr.Len(); dst += 5 {
			found, _, err := s.Run(g.Name(tr.Node(dst)), tr.Node(15))
			if err != nil || !found {
				t.Fatalf("seed %d: member %d not found", seed, dst)
			}
		}
	}
}
