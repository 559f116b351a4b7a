package treeroute

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

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
			t.Fatalf("path hop %d→%d is not an edge", path[i], path[i+1])
		}
		c += g.EdgeAt(path[i], p).Weight
	}
	return c
}

// checkAllPairs verifies that routing between every member pair follows
// exactly the tree path.
func checkAllPairs(t *testing.T, tr *tree.Tree) {
	t.Helper()
	s := New(tr)
	g := tr.Graph()
	for a := 0; a < tr.Len(); a++ {
		for b := 0; b < tr.Len(); b++ {
			path, err := s.Route(tr.Node(a), s.Label(b))
			if err != nil {
				t.Fatalf("route %d→%d: %v", a, b, err)
			}
			if path[len(path)-1] != tr.Node(b) {
				t.Fatalf("route %d→%d ended at %d", a, b, path[len(path)-1])
			}
			got := pathCost(t, g, path)
			want := tr.Dist(a, b)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("route %d→%d cost %v, tree distance %v", a, b, got, want)
			}
		}
	}
}

func TestRouteOnPathGraph(t *testing.T) {
	g := gen.Path(1, 8, gen.Uniform(1, 3))
	checkAllPairs(t, buildSPT(t, g, 0))
}

func TestRouteOnStar(t *testing.T) {
	g := gen.Star(2, 12, gen.Uniform(1, 5))
	checkAllPairs(t, buildSPT(t, g, 3)) // rooted at a leaf
}

func TestRouteOnBalancedTree(t *testing.T) {
	g := gen.BalancedTree(3, 3, 3, gen.Uniform(1, 2))
	checkAllPairs(t, buildSPT(t, g, 0))
}

func TestRouteOnRandomSPT(t *testing.T) {
	g := gen.Gnp(4, 40, 0.08, gen.Uniform(1, 9))
	checkAllPairs(t, buildSPT(t, g, 11))
}

func TestSingleNodeRoute(t *testing.T) {
	g := gen.Path(5, 1, gen.Unit())
	tr, err := tree.FromSPT(g, 0, sssp.From(g, 0).Parent)
	if err != nil {
		t.Fatal(err)
	}
	s := New(tr)
	path, err := s.Route(0, s.Label(0))
	if err != nil || len(path) != 1 {
		t.Fatalf("self route = %v, %v", path, err)
	}
}

func TestLightHopsLogBound(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := gen.Gnp(seed, 200, 0.03, gen.Unit())
		tr := buildSPT(t, g, 0)
		s := New(tr)
		bound := int(math.Floor(math.Log2(float64(tr.Len()))))
		if got := s.MaxLightHops(); got > bound {
			t.Fatalf("seed %d: %d light hops > log bound %d", seed, got, bound)
		}
	}
}

func TestLabelOf(t *testing.T) {
	g := gen.Path(6, 5, gen.Unit())
	tr := buildSPT(t, g, 0)
	s := New(tr)
	if _, ok := s.LabelOf(3); !ok {
		t.Fatal("LabelOf member failed")
	}
	// A node outside the tree.
	g2 := gen.Star(7, 6, gen.Unit())
	r := sssp.From(g2, 1)
	tr2, _ := tree.FromPaths(g2, r, []graph.NodeID{2})
	s2 := New(tr2)
	if _, ok := s2.LabelOf(5); ok {
		t.Fatal("LabelOf non-member succeeded")
	}
}

func TestStepRejectsNonMember(t *testing.T) {
	g := gen.Star(8, 6, gen.Unit())
	r := sssp.From(g, 1)
	tr, _ := tree.FromPaths(g, r, []graph.NodeID{2})
	s := New(tr)
	// No position, in range or not, names a node outside the tree.
	for at := -1; at <= tr.Len(); at++ {
		if _, _, _, err := s.Step(5, at, s.Label(0)); err == nil {
			t.Fatalf("Step on non-member at position %d did not error", at)
		}
	}
	// A position naming a different member must not route on that
	// member's record.
	for at := 0; at < tr.Len(); at++ {
		for other := 0; other < tr.Len(); other++ {
			if other == at {
				continue
			}
			if _, _, _, err := s.Step(tr.Node(at), other, s.Label(0)); err == nil {
				t.Fatalf("Step at member %d with the position of member %d did not error", at, other)
			}
		}
	}
}

// treePath returns the tree path between members a and b as graph
// nodes, read off the parent links.
func treePath(tr *tree.Tree, a, b int) []graph.NodeID {
	l := tr.LCA(a, b)
	var up, down []graph.NodeID
	for i := a; i != l; i = tr.Parent(i) {
		up = append(up, tr.Node(i))
	}
	for i := b; i != l; i = tr.Parent(i) {
		down = append(down, tr.Node(i))
	}
	up = append(up, tr.Node(l))
	slices.Reverse(down)
	return append(up, down...)
}

// TestStepCarriesPosition walks every member pair with Step from the
// source's tree index: each returned next must be the tree index of
// the node across the returned port, and the walk must be Route's
// path, which is the tree path.
func TestStepCarriesPosition(t *testing.T) {
	for _, c := range []struct {
		name string
		tr   *tree.Tree
	}{
		{"gnp", buildSPT(t, gen.Gnp(21, 60, 0.07, gen.Uniform(1, 9)), 5)},
		{"path", buildSPT(t, gen.Path(22, 20, gen.Uniform(1, 3)), 7)},
		{"star", buildSPT(t, gen.Star(23, 15, gen.Uniform(1, 5)), 0)},
		{"leafstar", buildSPT(t, gen.Star(24, 15, gen.Uniform(1, 5)), 4)},
		{"balanced", buildSPT(t, gen.BalancedTree(25, 3, 3, gen.Uniform(1, 2)), 0)},
	} {
		name, tr := c.name, c.tr
		s := New(tr)
		g := tr.Graph()
		for a := 0; a < tr.Len(); a++ {
			for b := 0; b < tr.Len(); b++ {
				lbl := s.Label(b)
				cur, at := tr.Node(a), a
				walk := []graph.NodeID{cur}
				for hop := 0; ; hop++ {
					if hop > 2*tr.Len() {
						t.Fatalf("%s %d→%d: routing loop", name, a, b)
					}
					arrived, port, next, err := s.Step(cur, at, lbl)
					if err != nil {
						t.Fatalf("%s %d→%d: %v", name, a, b, err)
					}
					if arrived {
						if next != at {
							t.Fatalf("%s %d→%d: arrived with next %d, want %d", name, a, b, next, at)
						}
						break
					}
					cur = g.EdgeAt(cur, port).To
					if want, ok := tr.Index(cur); !ok || next != want {
						t.Fatalf("%s %d→%d: next %d, but port %d leads to member %d (%t)", name, a, b, next, port, want, ok)
					}
					at = next
					walk = append(walk, cur)
				}
				route, err := s.Route(tr.Node(a), lbl)
				if err != nil {
					t.Fatalf("%s %d→%d: Route: %v", name, a, b, err)
				}
				if !slices.Equal(walk, route) || !slices.Equal(walk, treePath(tr, a, b)) {
					t.Fatalf("%s %d→%d: walk %v, Route %v, tree path %v", name, a, b, walk, route, treePath(tr, a, b))
				}
			}
		}
	}
}

func TestStorageBitsPositiveAndSmall(t *testing.T) {
	g := gen.Gnp(9, 100, 0.05, gen.Unit())
	tr := buildSPT(t, g, 0)
	s := New(tr)
	for i := 0; i < tr.Len(); i++ {
		b := s.LocalBits(i)
		if b <= 0 || b > 200 {
			t.Fatalf("LocalBits(%d) = %d out of expected range", i, b)
		}
	}
	// Label bits grow with light hops but stay O(log² n).
	for i := 0; i < tr.Len(); i++ {
		if s.Label(i).Bits() > 32+64*20 {
			t.Fatalf("label %d too large", i)
		}
	}
}

// Property: routing works on arbitrary random SPTs and costs exactly
// the tree distance.
func TestRouteProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.Gnp(seed, 25, 0.12, gen.Uniform(1, 4))
		r := sssp.From(g, 0)
		tr, err := tree.FromSPT(g, 0, r.Parent)
		if err != nil {
			return false
		}
		s := New(tr)
		// Check a sample of pairs.
		for a := 0; a < tr.Len(); a += 3 {
			for b := 1; b < tr.Len(); b += 4 {
				path, err := s.Route(tr.Node(a), s.Label(b))
				if err != nil || path[len(path)-1] != tr.Node(b) {
					return false
				}
				c := 0.0
				for i := 0; i+1 < len(path); i++ {
					p := g.PortTo(path[i], path[i+1])
					if p < 0 {
						return false
					}
					c += g.EdgeAt(path[i], p).Weight
				}
				if math.Abs(c-tr.Dist(a, b)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestLabelsMatchRootPath checks every flat label against the
// definition: the destination's preorder number and one hop per light
// edge on its root path, root side first.
func TestLabelsMatchRootPath(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := gen.Gnp(seed, 90, 0.05, gen.Uniform(1, 4))
		tr := buildSPT(t, g, graph.NodeID(seed))
		s := New(tr)
		for i := 0; i < tr.Len(); i++ {
			want := Label{Pre: int32(tr.Pre(i))}
			path := tr.PathToRoot(i)
			for j := len(path) - 1; j > 0; j-- {
				parent, child := path[j], path[j-1]
				if tr.Heavy(parent) != child {
					want.Light = append(want.Light, LightHop{ParentPre: int32(tr.Pre(parent)), Port: int32(tr.ChildPort(child))})
				}
			}
			got := s.Label(i)
			if got.Pre != want.Pre || !slices.Equal(got.Light, want.Light) {
				t.Fatalf("seed %d member %d: label %+v, want %+v", seed, i, got, want)
			}
		}
	}
}

// TestLabelAppendLeavesNeighbours appends to every label and checks
// that no other member's label changed.
func TestLabelAppendLeavesNeighbours(t *testing.T) {
	g := gen.Gnp(7, 80, 0.06, gen.Unit())
	tr := buildSPT(t, g, 0)
	s := New(tr)
	before := make([]Label, tr.Len())
	for i := range before {
		l := s.Label(i)
		before[i] = Label{Pre: l.Pre, Light: slices.Clone(l.Light)}
	}
	for i := 0; i < tr.Len(); i++ {
		l := s.Label(i)
		_ = append(l.Light, LightHop{ParentPre: -7, Port: -7})
	}
	for i := range before {
		if got := s.Label(i); !slices.Equal(got.Light, before[i].Light) {
			t.Fatalf("member %d label changed to %+v after appends", i, got)
		}
	}
}
