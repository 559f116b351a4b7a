package tree

import (
	"math"
	"testing"
	"testing/quick"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/sssp"
)

func sptOf(t *testing.T, g *graph.Graph, src graph.NodeID) *Tree {
	t.Helper()
	r := sssp.From(g, src)
	tr, err := FromSPT(g, src, r.Parent)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSPTOfPathGraph(t *testing.T) {
	g := gen.Path(1, 6, gen.Unit())
	tr := sptOf(t, g, 0)
	if tr.Len() != 6 || tr.Root() != 0 {
		t.Fatalf("len=%d root=%d", tr.Len(), tr.Root())
	}
	if tr.Radius() != 5 || tr.MaxEdge() != 1 {
		t.Fatalf("radius=%v maxEdge=%v", tr.Radius(), tr.MaxEdge())
	}
	// Depth equals graph distance on a path.
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		i, ok := tr.Index(v)
		if !ok {
			t.Fatalf("node %d missing", v)
		}
		if tr.Depth(i) != float64(v) {
			t.Fatalf("depth(%d) = %v", v, tr.Depth(i))
		}
	}
}

func TestSPTDepthMatchesDistances(t *testing.T) {
	g := gen.Gnp(2, 60, 0.08, gen.Uniform(1, 4))
	r := sssp.From(g, 7)
	tr := sptOf(t, g, 7)
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		i, ok := tr.Index(v)
		if !ok {
			t.Fatalf("SPT missing node %d", v)
		}
		if math.Abs(tr.Depth(i)-r.Dist[v]) > 1e-9 {
			t.Fatalf("depth(%d)=%v, dist=%v", v, tr.Depth(i), r.Dist[v])
		}
	}
}

func TestFromPathsPrunes(t *testing.T) {
	g := gen.Star(3, 10, gen.Unit())
	r := sssp.From(g, 1) // leaf root: paths go through center 0
	tr, err := FromPaths(g, r, []graph.NodeID{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Members: root 1, center 0, targets 5 and 7 — nothing else.
	if tr.Len() != 4 {
		t.Fatalf("pruned tree has %d members", tr.Len())
	}
	for _, v := range []graph.NodeID{1, 0, 5, 7} {
		if !tr.Contains(v) {
			t.Fatalf("member %d missing", v)
		}
	}
	if tr.Contains(2) {
		t.Fatal("unrequested leaf included")
	}
}

func TestFromPathsUnreachable(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode(uint64(i))
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g, _ := b.Build()
	r := sssp.From(g, 0)
	if _, err := FromPaths(g, r, []graph.NodeID{3}); err == nil {
		t.Fatal("unreachable target accepted")
	}
}

func TestFromParentsRejectsBadEdges(t *testing.T) {
	g := gen.Path(4, 4, gen.Unit())
	parent := []graph.NodeID{-1, 0, 1, 2}
	// One scratch for every call: a rejected call must leave it clean.
	sc := getScratch(g.N())
	if _, err := fromParents(sc, g, 0, parent, []graph.NodeID{0, 1}, nil); err == nil {
		t.Fatal("root with parent accepted")
	}
	parent[3] = 0
	if _, err := fromParents(sc, g, 0, parent, []graph.NodeID{1, 2, 3}, nil); err == nil {
		t.Fatal("non-adjacent parent accepted")
	}
	if _, err := fromParents(sc, g, 0, parent, []graph.NodeID{1, 1}, nil); err == nil {
		t.Fatal("node listed twice accepted")
	}
	if _, err := fromParents(sc, g, 0, parent, []graph.NodeID{2}, nil); err == nil {
		t.Fatal("parent outside the tree accepted")
	}
	if _, err := fromParents(sc, g, 0, parent, []graph.NodeID{1}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromParentsRejectsDisconnected(t *testing.T) {
	g := gen.Path(5, 5, gen.Unit())
	// 3 and 4 point at each other, so neither reaches the root.
	parent := []graph.NodeID{-1, 0, -1, 4, 3}
	if _, err := fromParents(getScratch(g.N()), g, 0, parent, []graph.NodeID{1, 3, 4}, nil); err == nil {
		t.Fatal("disconnected tree accepted")
	}
}

func TestDFSIntervalsNested(t *testing.T) {
	g := gen.BalancedTree(5, 3, 3, gen.Unit())
	tr := sptOf(t, g, 0)
	n := tr.Len()
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		p := tr.Pre(i)
		if p < 0 || p >= n || seen[p] {
			t.Fatal("preorder not a permutation")
		}
		seen[p] = true
		if tr.Post(i) <= p {
			t.Fatal("empty interval")
		}
		if i > 0 && !tr.InSubtree(tr.Parent(i), i) {
			t.Fatal("child interval not nested in parent")
		}
	}
	// Subtree size must equal interval width.
	for i := 0; i < n; i++ {
		if tr.Post(i)-tr.Pre(i) != tr.SubtreeSize(i) {
			t.Fatalf("interval width %d != subtree size %d", tr.Post(i)-tr.Pre(i), tr.SubtreeSize(i))
		}
	}
}

func TestHeavyChildIsLargest(t *testing.T) {
	g := gen.Gnp(6, 80, 0.05, gen.Unit())
	tr := sptOf(t, g, 0)
	for i := 0; i < tr.Len(); i++ {
		h := tr.Heavy(i)
		if len(tr.Children(i)) == 0 {
			if h != -1 {
				t.Fatal("leaf has heavy child")
			}
			continue
		}
		for _, c := range tr.Children(i) {
			if tr.SubtreeSize(int(c)) > tr.SubtreeSize(h) {
				t.Fatal("heavy child is not largest")
			}
		}
		// Heavy child explored first → contiguous with parent preorder.
		if tr.Pre(h) != tr.Pre(i)+1 {
			t.Fatal("heavy child not first in DFS")
		}
	}
}

func TestByDepthSorted(t *testing.T) {
	g := gen.Gnp(7, 50, 0.1, gen.Uniform(1, 9))
	tr := sptOf(t, g, 3)
	bd := tr.ByDepth()
	if len(bd) != tr.Len() {
		t.Fatal("ByDepth wrong length")
	}
	if bd[0] != 0 {
		t.Fatal("root not first in depth order")
	}
	for i := 1; i < len(bd); i++ {
		a, b := int(bd[i-1]), int(bd[i])
		if tr.Depth(a) > tr.Depth(b) {
			t.Fatal("ByDepth not sorted")
		}
		if tr.Depth(a) == tr.Depth(b) &&
			g.Name(tr.Node(a)) >= g.Name(tr.Node(b)) {
			t.Fatal("ByDepth tie-break not by name")
		}
	}
}

func TestLCAAndDist(t *testing.T) {
	g := gen.BalancedTree(8, 2, 4, gen.Unit())
	tr := sptOf(t, g, 0)
	// In a complete binary tree with unit weights, dist = depth(a) +
	// depth(b) - 2*depth(lca).
	all := sssp.From(g, 0)
	_ = all
	for a := 0; a < tr.Len(); a += 3 {
		for b := 0; b < tr.Len(); b += 5 {
			d := tr.Dist(a, b)
			// Cross-check against graph shortest path (tree == graph here).
			r := sssp.From(g, tr.Node(a))
			if math.Abs(d-r.Dist[tr.Node(b)]) > 1e-9 {
				t.Fatalf("tree dist(%d,%d)=%v, graph=%v", a, b, d, r.Dist[tr.Node(b)])
			}
		}
	}
}

func TestPathToRoot(t *testing.T) {
	g := gen.Path(9, 5, gen.Unit())
	tr := sptOf(t, g, 0)
	i, _ := tr.Index(4)
	p := tr.PathToRoot(i)
	if len(p) != 5 || p[len(p)-1] != 0 {
		t.Fatalf("PathToRoot = %v", p)
	}
	for j := 0; j+1 < len(p); j++ {
		if tr.Parent(p[j]) != p[j+1] {
			t.Fatal("PathToRoot not a parent chain")
		}
	}
}

func TestSingleNodeTree(t *testing.T) {
	g := gen.Path(1, 1, gen.Unit())
	tr, err := FromSPT(g, 0, sssp.From(g, 0).Parent)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Radius() != 0 || tr.MaxEdge() != 0 {
		t.Fatal("single node tree malformed")
	}
	if tr.Heavy(0) != -1 || tr.SubtreeSize(0) != 1 {
		t.Fatal("single node tree stats wrong")
	}
}

// Property: SPT trees over random graphs always validate and their
// radius equals the source eccentricity.
func TestSPTProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.Gnp(seed, 30, 0.1, gen.Uniform(1, 5))
		r := sssp.From(g, 0)
		tr, err := FromSPT(g, 0, r.Parent)
		if err != nil || tr.Validate() != nil {
			return false
		}
		return math.Abs(tr.Radius()-r.Radius()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestChildrenListsParentsInverse checks the CSR children against the
// parent links: each member's children in increasing index order, each
// slice capped at its own run.
func TestChildrenListsParentsInverse(t *testing.T) {
	g := gen.Gnp(31, 120, 0.04, gen.Uniform(1, 3))
	tr := sptOf(t, g, 5)
	want := make([][]int32, tr.Len())
	for i := 1; i < tr.Len(); i++ {
		p := tr.Parent(i)
		want[p] = append(want[p], int32(i))
	}
	for i := 0; i < tr.Len(); i++ {
		got := tr.Children(i)
		if len(got) != len(want[i]) || cap(got) != len(got) {
			t.Fatalf("member %d: children %v (cap %d), want %v", i, got, cap(got), want[i])
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("member %d: children %v, want %v", i, got, want[i])
			}
		}
	}
}
