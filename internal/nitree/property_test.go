package nitree

import (
	"testing"
	"testing/quick"

	"compactroute/internal/gen"
	"compactroute/internal/sssp"
	"compactroute/internal/tree"
)

// Property: on arbitrary random SPTs and k values, every member is
// found by a full search within the 2k−1 stretch bound, every phantom
// is reported missing, and MinBoundOf is sufficient.
func TestSearchInvariantsProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := 2 + int(kRaw%3) // k ∈ {2,3,4}
		g := gen.Gnp(seed, 40, 0.1, gen.Uniform(1, 5))
		r := sssp.From(g, 0)
		tr, err := tree.FromSPT(g, 0, r.Parent)
		if err != nil {
			return false
		}
		s, err := New(tr, Params{K: k, Seed: seed ^ 0xabc})
		if err != nil {
			return false
		}
		for i := 0; i < tr.Len(); i += 3 {
			ext := g.Name(tr.Node(i))
			found, path, err := s.RunSearch(ext, k)
			if err != nil || !found || path[len(path)-1] != tr.Node(i) {
				return false
			}
			cost := 0.0
			for j := 0; j+1 < len(path); j++ {
				p := g.PortTo(path[j], path[j+1])
				if p < 0 {
					return false
				}
				cost += g.EdgeAt(path[j], p).Weight
			}
			if d := tr.Depth(i); cost > float64(2*k-1)*d+1e-9 {
				return false
			}
			b := s.MinBoundOf(i)
			if b < 1 || b > k {
				return false
			}
			if ok, _, _ := s.RunSearch(ext, b); !ok {
				return false
			}
		}
		// Phantoms never found, always reported at the root.
		for q := uint64(1); q <= 5; q++ {
			ext := seed*2654435761 + q
			if _, exists := g.Lookup(ext); exists {
				continue
			}
			found, path, err := s.RunSearch(ext, k)
			if err != nil || found || path[len(path)-1] != tr.Root() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: primary names are prefix-closed — every strict prefix of
// an assigned name is also assigned (the trie walk depends on it).
func TestTriePrefixClosedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.Geometric(seed, 50, 0.3)
		r := sssp.From(g, 0)
		tr, err := tree.FromSPT(g, 0, r.Parent)
		if err != nil {
			return false
		}
		s, err := New(tr, Params{K: 3, Seed: seed})
		if err != nil {
			return false
		}
		assigned := make(map[string]bool, tr.Len())
		for i := 0; i < tr.Len(); i++ {
			assigned[digitKey(s.PrimaryName(i))] = true
		}
		for i := 0; i < tr.Len(); i++ {
			name := s.PrimaryName(i)
			for l := 0; l < len(name); l++ {
				if !assigned[digitKey(name[:l])] {
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
