package landmark

import (
	"slices"
	"sort"
	"testing"

	"compactroute/internal/decomp"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
)

// refVerifyLemma3 is the per-triple check VerifyLemma3 replaced: one
// InS lookup (a map read and a binary search) per (u, i, v). It is kept
// only as the oracle of the differential test.
func refVerifyLemma3(h *Hierarchy, dec *decomp.Decomposition) (checked, violations int) {
	for u := graph.NodeID(0); int(u) < h.g.N(); u++ {
		for i := 0; i <= h.k; i++ {
			if dec.Dense(u, i) {
				continue
			}
			c := h.Center(u, i)
			for _, v := range dec.E(u, i) {
				checked++
				if !h.InS(v, c) {
					violations++
				}
			}
		}
	}
	return checked, violations
}

// refMembers is the members transpose computeS built before: a seen map
// per u, then a sort of every list.
func refMembers(h *Hierarchy) map[graph.NodeID][]graph.NodeID {
	members := make(map[graph.NodeID][]graph.NodeID)
	for u := 0; u < h.g.N(); u++ {
		seen := make(map[graph.NodeID]bool)
		for i := 0; i <= h.top; i++ {
			for _, c := range h.S(graph.NodeID(u), i) {
				if !seen[c] {
					seen[c] = true
					members[c] = append(members[c], graph.NodeID(u))
				}
			}
		}
	}
	for _, m := range members {
		sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
	}
	return members
}

// TestVerifyLemma3MatchesPerTriple holds the per-center check and the
// members transpose to the per-triple and map forms, on instances where
// Lemma 3 holds (paper constants) and where it fails (a small SFactor),
// sampled and derandomized.
func TestVerifyLemma3MatchesPerTriple(t *testing.T) {
	for _, c := range []struct {
		name     string
		g        *graph.Graph
		p        Params
		violates bool
	}{
		{"paper-constants", gen.Gnp(1, 100, 0.05, gen.Uniform(1, 6)), Params{K: 2, SFactor: 16, Seed: 1}, false},
		{"small-sfactor", gen.Gnp(3, 120, 0.06, gen.Uniform(1, 4)), Params{K: 3, SFactor: 0.01, Seed: 3}, true},
		{"geometric", gen.Geometric(4, 150, 0.15), Params{K: 3, SFactor: 0.05, Seed: 9}, true},
		{"deterministic", gen.Gnp(5, 140, 0.04, gen.Uniform(1, 5)), Params{K: 3, SFactor: 0.05, Deterministic: true}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, dec := buildWith(t, c.g, c.p)
			checked, violations := h.VerifyLemma3(dec)
			wantChecked, wantViolations := refVerifyLemma3(h, dec)
			if checked != wantChecked || violations != wantViolations {
				t.Fatalf("VerifyLemma3 = %d/%d, per-triple %d/%d", violations, checked, wantViolations, wantChecked)
			}
			if checked == 0 || (violations > 0) != c.violates {
				t.Fatalf("%d/%d violations: the instance does not exercise the case", violations, checked)
			}
			want := refMembers(h)
			if len(h.members) != len(want) {
				t.Fatalf("%d landmarks, reference %d", len(h.members), len(want))
			}
			for lm, m := range want {
				if !slices.Equal(h.Members(lm), m) {
					t.Fatalf("Members(%d) = %v, reference %v", lm, h.Members(lm), m)
				}
			}
		})
	}
}

// TestGroupByCenter checks the CSR against a direct scan: each center
// lists exactly the selected phases it is the center of, in (u, i)
// order.
func TestGroupByCenter(t *testing.T) {
	g := gen.Gnp(6, 90, 0.06, gen.Uniform(1, 5))
	h, dec := buildWith(t, g, Params{K: 3, SFactor: 0.5, Seed: 2})
	sparse := func(u graph.NodeID, i int) bool { return !dec.Dense(u, i) }
	byCenter := h.GroupByCenter(sparse)
	total := 0
	for c := graph.NodeID(0); int(c) < g.N(); c++ {
		var want []Phase
		for u := graph.NodeID(0); int(u) < g.N(); u++ {
			for i := 0; i <= h.K(); i++ {
				if sparse(u, i) && h.Center(u, i) == c {
					want = append(want, Phase{U: u, I: int32(i)})
				}
			}
		}
		if got := byCenter.Of(c); !slices.Equal(got, want) {
			t.Fatalf("Of(%d) = %v, want %v", c, got, want)
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("no sparse phase: the test is vacuous")
	}
}
