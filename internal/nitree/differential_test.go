package nitree

import (
	"fmt"
	"slices"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/sssp"
	"compactroute/internal/tree"
	"compactroute/internal/treeroute"
	"compactroute/internal/xrand"
)

func sameLabel(a, b treeroute.Label) bool {
	return a.Pre == b.Pre && slices.Equal(a.Light, b.Light)
}

// diffCase is one random tree for the differential test.
type diffCase struct {
	name string
	g    *graph.Graph
	tr   *tree.Tree
	p    Params
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	var cases []diffCase
	rng := xrand.New(0xd1ff)
	for c := 0; c < 40; c++ {
		seed := rng.Uint64()
		n := 2 + rng.Intn(110)
		var g *graph.Graph
		switch c % 4 {
		case 0:
			g = gen.Path(seed, n, gen.Uniform(1, 3))
		case 1:
			g = gen.Geometric(seed, n, 0.3)
		default:
			g = gen.Gnp(seed, n, 0.08, gen.Uniform(1, 5))
		}
		root := graph.NodeID(rng.Intn(n))
		r := sssp.From(g, root)
		var tr *tree.Tree
		var err error
		if c%3 == 2 {
			// A pruned landmark-style tree spanning a random subset.
			var targets []graph.NodeID
			for v := 0; v < n; v++ {
				if rng.Intn(3) == 0 {
					targets = append(targets, graph.NodeID(v))
				}
			}
			tr, err = tree.FromPaths(g, r, targets)
		} else {
			tr, err = tree.FromSPT(g, root, r.Parent)
		}
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + c%5
		p := Params{K: k, UniverseN: g.N(), Seed: seed ^ 0x5a}
		if c%5 == 3 {
			p.LoadFactor = 0.3 // force reseeds and widened buckets
		}
		cases = append(cases, diffCase{fmt.Sprintf("case%d-n%d-m%d-k%d", c, n, tr.Len(), k), g, tr, p})
	}
	return cases
}

// TestFlatTrieMatchesMapReference builds each random tree with the
// flat layout and with the map-based reference, and checks they store
// and answer the same: every bucket and child label, the storage
// charge, the search bound recorded for each member, and the path of
// every search, members' and phantoms'.
func TestFlatTrieMatchesMapReference(t *testing.T) {
	sawSigma2, sawPartial, sawViolation := false, false, false
	for _, c := range diffCases(t) {
		s := mustNew(t, c.tr, c.p)
		ref := newRef(c.tr, s.lr, c.p)
		if s.seed != ref.seed || s.cap != ref.cap || s.ReseedCount != ref.reseedCount ||
			s.LoadViolation != ref.loadViolation || s.sigma != ref.sigma || !slices.Equal(s.levelLen, ref.levelLen) {
			t.Fatalf("%s: construction differs: seed %d/%d cap %d/%d reseeds %d/%d violation %t/%t σ %d/%d levels %v/%v",
				c.name, s.seed, ref.seed, s.cap, ref.cap, s.ReseedCount, ref.reseedCount,
				s.LoadViolation, ref.loadViolation, s.sigma, ref.sigma, s.levelLen, ref.levelLen)
		}
		sawSigma2 = sawSigma2 || s.sigma == 2
		last := s.levelOf(c.tr.Len() - 1)
		sawPartial = sawPartial || (last < s.k && c.tr.Len()-s.levelStart(last) < ipow(s.sigma, last))
		sawViolation = sawViolation || s.LoadViolation
		order := c.tr.ByDepth()
		for i := 0; i < c.tr.Len(); i++ {
			if !slices.Equal(s.PrimaryName(i), ref.names[i]) {
				t.Fatalf("%s: member %d named %v, reference %v", c.name, i, s.PrimaryName(i), ref.names[i])
			}
			p := int(s.posOf[i])
			bucket := map[uint64]treeroute.Label{}
			for e := s.bucketOff[p]; e < s.bucketOff[p+1]; e++ {
				m := int(s.bucketMember[e])
				if c.g.Name(c.tr.Node(m)) != s.bucketName[e] {
					t.Fatalf("%s: bucket entry %d names %#x but holds member %d", c.name, e, s.bucketName[e], m)
				}
				bucket[s.bucketName[e]] = s.lr.Label(m)
			}
			if !mapsMatch(bucket, ref.storage[i].bucket) {
				t.Fatalf("%s: member %d bucket %v, reference %v", c.name, i, bucket, ref.storage[i].bucket)
			}
			kids := map[uint16]treeroute.Label{}
			lo, hi := s.children(p)
			for ch := lo; ch < hi; ch++ {
				kids[uint16(ch-lo)] = s.lr.Label(int(order[ch]))
			}
			if !mapsMatch(kids, ref.storage[i].childLabels) {
				t.Fatalf("%s: member %d children %v, reference %v", c.name, i, kids, ref.storage[i].childLabels)
			}
			if got, want := s.StorageBits(i), ref.storageBits(i); got != want {
				t.Fatalf("%s: member %d StorageBits %d, reference %d", c.name, i, got, want)
			}
			ext := c.g.Name(c.tr.Node(i))
			if got, want := s.MinBoundOf(i), ref.minBound(ext); got != want {
				t.Fatalf("%s: member %d MinBoundOf %d, reference %d", c.name, i, got, want)
			}
			for b := 1; b <= s.k; b++ {
				compareSearch(t, c.name, s, ref, ext, b)
			}
		}
		// Phantoms: graph nodes outside a pruned tree, and names not in
		// the graph at all.
		phantoms := []uint64{0xdead, 0xbeef0001, c.p.Seed}
		for v := 0; v < c.g.N(); v++ {
			if !c.tr.Contains(graph.NodeID(v)) {
				phantoms = append(phantoms, c.g.Name(graph.NodeID(v)))
			}
		}
		for _, ext := range phantoms {
			if b := ref.minBound(ext); b != 0 {
				t.Fatalf("%s: phantom %#x has reference bound %d", c.name, ext, b)
			}
			for b := 1; b <= s.k; b++ {
				if compareSearch(t, c.name, s, ref, ext, b) {
					t.Fatalf("%s: phantom %#x found with bound %d", c.name, ext, b)
				}
			}
		}
	}
	if !sawSigma2 || !sawPartial || !sawViolation {
		t.Fatalf("cases miss a regime: σ=2 %t, partial last level below k %t, load violation %t", sawSigma2, sawPartial, sawViolation)
	}
}

// compareSearch runs one search on both layouts, requires the same
// outcome and path, and reports whether it found ext.
func compareSearch(t *testing.T, name string, s *Scheme, ref *refScheme, ext uint64, bound int) bool {
	t.Helper()
	found, path, err := s.RunSearch(ext, bound)
	rFound, rPath, rErr := ref.runSearch(ext, bound)
	if err != nil || rErr != nil {
		t.Fatalf("%s: search %#x bound %d: %v / reference %v", name, ext, bound, err, rErr)
	}
	if found != rFound || !slices.Equal(path, rPath) {
		t.Fatalf("%s: search %#x bound %d: found %t path %v, reference %t %v", name, ext, bound, found, path, rFound, rPath)
	}
	return found
}

func mapsMatch[K comparable](a, b map[K]treeroute.Label) bool {
	if len(a) != len(b) {
		return false
	}
	for key, l := range a {
		r, ok := b[key]
		if !ok || !sameLabel(l, r) {
			return false
		}
	}
	return true
}

func ipow(b, e int) int {
	r := 1
	for ; e > 0; e-- {
		r *= b
	}
	return r
}
