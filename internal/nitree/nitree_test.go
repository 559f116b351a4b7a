package nitree

import (
	"math"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/sssp"
	"compactroute/internal/tree"
	"compactroute/internal/xrand"
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

func mustNew(t *testing.T, tr *tree.Tree, p Params) *Scheme {
	t.Helper()
	s, err := New(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
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

func TestNamesAssignedInDepthOrder(t *testing.T) {
	g := gen.Gnp(1, 60, 0.08, gen.Uniform(1, 4))
	tr := buildSPT(t, g, 0)
	s := mustNew(t, tr, Params{K: 3, Seed: 7})
	order := tr.ByDepth()
	prevLen := 0
	for pos, ti := range order {
		name := s.PrimaryName(int(ti))
		if len(name) < prevLen {
			t.Fatalf("name lengths not monotone at pos %d", pos)
		}
		prevLen = len(name)
	}
	// Root has the empty name.
	ri, _ := tr.Index(tr.Root())
	if len(s.PrimaryName(ri)) != 0 {
		t.Fatal("root name not empty")
	}
}

func TestLevelSizes(t *testing.T) {
	g := gen.Gnp(2, 100, 0.05, gen.Unit())
	tr := buildSPT(t, g, 0)
	s := mustNew(t, tr, Params{K: 3, Seed: 1})
	sigma := s.Sigma()
	// |V_0| = 1, |V_1| = 1+σ, capped at m.
	if s.LevelSize(0) != 1 {
		t.Fatalf("|V_0| = %d", s.LevelSize(0))
	}
	want := 1 + sigma
	if want > tr.Len() {
		want = tr.Len()
	}
	if s.LevelSize(1) != want {
		t.Fatalf("|V_1| = %d, want %d", s.LevelSize(1), want)
	}
	if s.LevelSize(3) != tr.Len() {
		t.Fatalf("|V_k| = %d, want all %d", s.LevelSize(3), tr.Len())
	}
	// Monotone.
	for j := 1; j <= 3; j++ {
		if s.LevelSize(j) < s.LevelSize(j-1) {
			t.Fatal("level sizes not monotone")
		}
	}
}

func TestFullSearchFindsEveryMember(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4} {
		g := gen.Gnp(3, 80, 0.06, gen.Uniform(1, 5))
		tr := buildSPT(t, g, 4)
		s := mustNew(t, tr, Params{K: k, Seed: 11})
		for i := 0; i < tr.Len(); i++ {
			ext := g.Name(tr.Node(i))
			found, path, err := s.RunSearch(ext, k)
			if err != nil {
				t.Fatalf("k=%d search for member %d: %v", k, i, err)
			}
			if !found {
				t.Fatalf("k=%d member %d not found", k, i)
			}
			if path[len(path)-1] != tr.Node(i) {
				t.Fatalf("k=%d search ended at wrong node", k)
			}
		}
	}
}

func TestSearchStretchBound(t *testing.T) {
	// Property (a): if found at round i, cost ≤ (2i−1)·d(r,v), and in
	// particular ≤ (2k−1)·d(r,v).
	g := gen.Gnp(4, 120, 0.04, gen.Uniform(1, 6))
	tr := buildSPT(t, g, 0)
	k := 3
	s := mustNew(t, tr, Params{K: k, Seed: 5})
	for i := 0; i < tr.Len(); i++ {
		v := tr.Node(i)
		ext := g.Name(v)
		found, path, err := s.RunSearch(ext, k)
		if err != nil || !found {
			t.Fatalf("member %d not found: %v", i, err)
		}
		cost := pathCost(t, g, path)
		dv := tr.Depth(i)
		bound := float64(2*k-1) * dv
		if cost > bound+1e-9 {
			t.Fatalf("member %d: search cost %v > (2k-1)·d = %v", i, cost, bound)
		}
	}
}

func TestMinBoundSufficientAndTight(t *testing.T) {
	g := gen.Gnp(5, 90, 0.05, gen.Uniform(1, 3))
	tr := buildSPT(t, g, 2)
	k := 3
	s := mustNew(t, tr, Params{K: k, Seed: 9})
	for i := 0; i < tr.Len(); i++ {
		ext := g.Name(tr.Node(i))
		b := s.MinBoundOf(i)
		if b < 1 || b > k {
			t.Fatalf("MinBoundOf(%d) = %d out of range", i, b)
		}
		found, _, err := s.RunSearch(ext, b)
		if err != nil || !found {
			t.Fatalf("b-bounded search failed for member %d with b=%d", i, b)
		}
		if b > 1 {
			// One less must fail (tightness of MinBoundOf).
			found, _, err := s.RunSearch(ext, b-1)
			if err != nil {
				t.Fatal(err)
			}
			if found {
				t.Fatalf("member %d found with bound %d < MinBoundOf %d", i, b-1, b)
			}
		}
	}
}

func TestNegativeResponseReturnsToRootWithCostBound(t *testing.T) {
	// Property (b): a failed j-bounded search returns to the root at
	// cost ≤ (2j−2)·max{d(r,v) : v ∈ V_{j−1}}.
	g := gen.Gnp(6, 100, 0.05, gen.Uniform(1, 4))
	tr := buildSPT(t, g, 0)
	k := 4
	s := mustNew(t, tr, Params{K: k, Seed: 3})
	order := tr.ByDepth()
	for j := 2; j <= k; j++ {
		// Max depth among V_{j-1}.
		vj1 := s.LevelSize(j - 1)
		maxD := 0.0
		for pos := 0; pos < vj1; pos++ {
			if d := tr.Depth(int(order[pos])); d > maxD {
				maxD = d
			}
		}
		// Search for names that are not in the graph at all.
		for q := uint64(0); q < 50; q++ {
			ext := 0xdead0000 + q*7919
			if _, ok := g.Lookup(ext); ok {
				continue
			}
			found, path, err := s.RunSearch(ext, j)
			if err != nil {
				t.Fatal(err)
			}
			if found {
				t.Fatalf("found non-existent name %#x", ext)
			}
			if path[len(path)-1] != tr.Root() {
				t.Fatal("negative response did not return to root")
			}
			cost := pathCost(t, g, path)
			bound := float64(2*j-2)*maxD + 1e-9
			if cost > bound {
				t.Fatalf("negative search cost %v > bound %v (j=%d)", cost, bound, j)
			}
		}
	}
}

func TestSearchForRootItself(t *testing.T) {
	g := gen.Star(7, 20, gen.Uniform(1, 2))
	tr := buildSPT(t, g, 0)
	s := mustNew(t, tr, Params{K: 2, Seed: 1})
	found, path, err := s.RunSearch(g.Name(0), 1)
	if err != nil || !found {
		t.Fatalf("root not found: %v", err)
	}
	if len(path) != 1 {
		t.Fatalf("root search moved: %v", path)
	}
}

func TestSingleNodeTree(t *testing.T) {
	g := gen.Path(8, 1, gen.Unit())
	tr, err := tree.FromSPT(g, 0, sssp.From(g, 0).Parent)
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, tr, Params{K: 2, Seed: 1})
	found, _, err := s.RunSearch(g.Name(0), 2)
	if err != nil || !found {
		t.Fatal("single node not found")
	}
	found, _, err = s.RunSearch(12345, 2)
	if err != nil || found {
		t.Fatal("phantom found in single node tree")
	}
}

func TestPrunedTreeMembersOnly(t *testing.T) {
	// A landmark tree spanning a subset: search must find exactly the
	// members and reject non-member graph nodes.
	g := gen.Gnp(9, 60, 0.08, gen.Uniform(1, 3))
	r := sssp.From(g, 0)
	targets := []graph.NodeID{5, 10, 15, 20, 25, 30}
	tr, err := tree.FromPaths(g, r, targets)
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, tr, Params{K: 2, UniverseN: g.N(), Seed: 13})
	for _, v := range targets {
		found, path, err := s.RunSearch(g.Name(v), 2)
		if err != nil || !found || path[len(path)-1] != v {
			t.Fatalf("member %d not found: %v", v, err)
		}
	}
	misses := 0
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if !tr.Contains(v) {
			found, _, err := s.RunSearch(g.Name(v), 2)
			if err != nil {
				t.Fatal(err)
			}
			if found {
				t.Fatalf("non-member %d found in pruned tree", v)
			}
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("test vacuous: no non-members")
	}
}

func TestStorageWithinLemmaBound(t *testing.T) {
	// Lemma 4: O(k n^{1/k} log² n) bits per node. Verify with a
	// generous explicit constant.
	g := gen.Gnp(10, 200, 0.03, gen.Unit())
	tr := buildSPT(t, g, 0)
	for _, k := range []int{2, 3, 4} {
		s := mustNew(t, tr, Params{K: k, Seed: 2})
		n := float64(g.N())
		logn := math.Log2(n)
		bound := 400.0 * float64(k) * math.Pow(n, 1/float64(k)) * logn * logn
		for i := 0; i < tr.Len(); i++ {
			if got := float64(s.StorageBits(i)); got > bound {
				t.Fatalf("k=%d node %d stores %v bits > bound %v", k, i, got, bound)
			}
		}
	}
}

func TestHeaderBitsPolylog(t *testing.T) {
	g := gen.Gnp(11, 150, 0.04, gen.Unit())
	tr := buildSPT(t, g, 0)
	s := mustNew(t, tr, Params{K: 3, Seed: 4})
	h := s.NewSearch(g.Name(7), 3)
	if h.HeaderBits() <= 0 || h.HeaderBits() > 4096 {
		t.Fatalf("header bits = %d", h.HeaderBits())
	}
}

func TestBucketCapRespectsTheory(t *testing.T) {
	g := gen.Gnp(12, 150, 0.04, gen.Unit())
	tr := buildSPT(t, g, 0)
	s := mustNew(t, tr, Params{K: 3, Seed: 21})
	theory := int(math.Ceil(float64(s.Sigma()) * math.Log(float64(g.N()))))
	if !s.LoadViolation && s.BucketCap() != theory {
		t.Fatalf("cap %d != theory %d without violation", s.BucketCap(), theory)
	}
	// Buckets must not exceed the cap.
	for p := 0; p < tr.Len(); p++ {
		if n := int(s.bucketOff[p+1] - s.bucketOff[p]); n > s.BucketCap() {
			t.Fatalf("bucket %d holds %d > cap", p, n)
		}
	}
}

func TestPathGraphWorstCase(t *testing.T) {
	// A path rooted at one end is the worst case for depth ordering.
	g := gen.Path(13, 64, gen.Uniform(1, 2))
	tr := buildSPT(t, g, 0)
	k := 3
	s := mustNew(t, tr, Params{K: k, Seed: 8})
	for i := 0; i < tr.Len(); i++ {
		ext := g.Name(tr.Node(i))
		found, path, err := s.RunSearch(ext, k)
		if err != nil || !found {
			t.Fatalf("path member %d not found", i)
		}
		cost := pathCost(t, g, path)
		if dv := tr.Depth(i); cost > float64(2*k-1)*dv+1e-9 {
			t.Fatalf("stretch violated on path graph: %v > %v", cost, float64(2*k-1)*dv)
		}
	}
}

func TestParamsNormalization(t *testing.T) {
	g := gen.Path(14, 4, gen.Unit())
	tr := buildSPT(t, g, 0)
	// K=0 normalizes to 1; zero universe uses tree size.
	s := mustNew(t, tr, Params{})
	if s.k != 1 {
		t.Fatalf("k normalized to %d", s.k)
	}
	if _, err := New(tr, Params{K: 100}); err == nil {
		t.Fatal("k=100 accepted")
	}
}

// TestMaxPrefixLoadMatchesMapCount holds the dense prefix count to a
// map count on random trees under many seeds, from k = 1 up to the
// largest k New accepts. With σ = 2 and k ≫ log₂ m, the σ^{k−1}
// prefixes of the deepest levels far outnumber the members, which a
// dense array sized by them could not hold.
func TestMaxPrefixLoadMatchesMapCount(t *testing.T) {
	rng := xrand.New(0x10ad)
	sawHuge := false
	for c := 0; c < 24; c++ {
		n := 1 + rng.Intn(120)
		var g *graph.Graph
		switch c % 3 {
		case 0:
			g = gen.Path(rng.Uint64(), n, gen.Unit())
		case 1:
			g = gen.Geometric(rng.Uint64(), n, 0.3)
		default:
			g = gen.Gnp(rng.Uint64(), n, 0.08, gen.Uniform(1, 5))
		}
		tr := buildSPT(t, g, graph.NodeID(rng.Intn(n)))
		for _, k := range []int{1, 2, 3, 5, 8, 20, 60} {
			s := mustNew(t, tr, Params{K: k, UniverseN: g.N(), Seed: rng.Uint64()})
			exts := make([]uint64, tr.Len())
			for pos, i := range tr.ByDepth() {
				exts[pos] = g.Name(tr.Node(int(i)))
			}
			if math.Pow(float64(s.sigma), float64(k-1)) > 1e6*float64(tr.Len()) {
				sawHuge = true
			}
			for try := 0; try < 6; try++ {
				seed := rng.Uint64()
				if got, want := s.maxPrefixLoad(seed, exts), refMaxPrefixLoad(s, seed, exts); got != want {
					t.Fatalf("case %d (m=%d, k=%d, σ=%d) seed %#x: load %d, map count %d",
						c, tr.Len(), k, s.sigma, seed, got, want)
				}
			}
		}
	}
	if !sawHuge {
		t.Fatal("no case had σ^{k−1} far above the tree size")
	}
}
