package core

import (
	"cmp"
	"slices"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/sssp"
	"compactroute/internal/tree"
)

// refSparseSide is the sparse-side bookkeeping the one pass per
// landmark replaced, kept only as the oracle of the differential test:
// a map-of-maps target set per center seeded from its members, every
// sparse phase's source and E(u,i) forced in (counting ForcedMembers),
// and b(u,i) computed afterwards through Tree.Index.
func refSparseSide(s *Scheme) (need map[graph.NodeID]map[graph.NodeID]bool, forced int, bounds [][]uint8) {
	need = make(map[graph.NodeID]map[graph.NodeID]bool)
	for c := graph.NodeID(0); int(c) < s.g.N(); c++ {
		if members := s.lm.Members(c); len(members) > 0 {
			m := make(map[graph.NodeID]bool)
			for _, v := range members {
				m[v] = true
			}
			need[c] = m
		}
	}
	for u := 0; u < s.g.N(); u++ {
		for i := 0; i <= s.k; i++ {
			info := &s.levels[u][i]
			if info.dense || info.skip {
				continue
			}
			m, ok := need[info.center]
			if !ok {
				m = make(map[graph.NodeID]bool)
				need[info.center] = m
			}
			if !m[graph.NodeID(u)] {
				m[graph.NodeID(u)] = true
				forced++
			}
			for _, v := range s.dec.E(graph.NodeID(u), i) {
				if !m[v] {
					m[v] = true
					forced++
				}
			}
		}
	}
	bounds = make([][]uint8, s.g.N())
	for u := range bounds {
		bounds[u] = make([]uint8, s.k+1)
		for i := 0; i <= s.k; i++ {
			info := &s.levels[u][i]
			if info.dense || info.skip {
				continue
			}
			lt := s.trees[info.center]
			b := 1
			for _, v := range s.dec.E(graph.NodeID(u), i) {
				mb := 0
				if idx, ok := lt.t.Index(v); ok {
					mb = lt.ni.MinBoundOf(idx)
				}
				if mb == 0 {
					mb = s.k
				}
				b = max(b, mb)
			}
			bounds[u][i] = uint8(b)
		}
	}
	return need, forced, bounds
}

// TestSparseSideMatchesMapReference holds the one pass per landmark
// tree to the map-of-maps construction: the same centers, each tree
// spanning the same target set, the same ForcedMembers and the same
// b(u,i), under every mode, the derandomized landmarks, and a small
// SFactor that makes Lemma 3 fail and the repair force members in.
func TestSparseSideMatchesMapReference(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		p      Params
		forces bool // the instance needs Lemma 3 repairs
	}{
		{"combined", gen.Gnp(41, 160, 0.04, gen.Uniform(1, 5)), Params{K: 3, Seed: 4, SFactor: 1}, false},
		{"sparse-only", gen.Gnp(42, 160, 0.03, gen.PowerOfTwo(6)), Params{K: 3, Seed: 5, SFactor: 0.01, Mode: SparseOnly}, true},
		{"dense-only", gen.Gnp(43, 160, 0.03, gen.PowerOfTwo(6)), Params{K: 3, Seed: 6, SFactor: 1, Mode: DenseOnly}, false},
		{"deterministic", gen.Gnp(44, 160, 0.04, gen.Uniform(1, 5)), Params{K: 3, Seed: 7, SFactor: 1, DeterministicLandmarks: true}, true},
		{"repaired", gen.Gnp(3, 120, 0.06, gen.Uniform(1, 4)), Params{K: 3, Seed: 3, SFactor: 0.01}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			all := sssp.AllPairs(c.g)
			s, err := BuildWithAPSP(c.g, all, c.p)
			if err != nil {
				t.Fatal(err)
			}
			need, forced, bounds := refSparseSide(s)
			if c.forces && forced == 0 {
				t.Fatal("no forced members: the repair case is vacuous")
			}
			if s.Report.ForcedMembers != forced {
				t.Fatalf("ForcedMembers %d, reference %d", s.Report.ForcedMembers, forced)
			}
			if len(s.trees) != len(need) {
				t.Fatalf("%d landmark trees, reference %d", len(s.trees), len(need))
			}
			for c, m := range need {
				lt, ok := s.trees[c]
				if !ok {
					t.Fatalf("no tree for center %d", c)
				}
				targets := make([]graph.NodeID, 0, len(m))
				for v := range m {
					targets = append(targets, v)
				}
				want, err := tree.FromPaths(s.g, all[c], targets)
				if err != nil {
					t.Fatal(err)
				}
				got, ref := lt.t.Snapshot(), want.Snapshot()
				if !slices.Equal(got.Nodes, ref.Nodes) || !slices.Equal(got.Parents, ref.Parents) {
					t.Fatalf("tree of center %d spans a different target set", c)
				}
			}
			for u := range bounds {
				for i, b := range bounds[u] {
					if got := s.levels[u][i].bound; got != b {
						t.Fatalf("b(%d,%d) = %d, reference %d", u, i, got, b)
					}
				}
			}
		})
	}
}

// TestFromSnapshotRejectsCorruptTree loads schemes whose landmark or
// cover tree names a node outside the graph: the rebuild runs inside a
// parallel pass, where a panic would take the process down, so it must
// come back as an error.
func TestFromSnapshotRejectsCorruptTree(t *testing.T) {
	s := mustBuild(t, gen.Gnp(45, 120, 0.05, gen.Uniform(1, 5)), Params{K: 3, Seed: 8, SFactor: 1})
	corrupt := func(ts *tree.Snapshot) *tree.Snapshot {
		nodes := slices.Clone(ts.Nodes)
		nodes[len(nodes)-1] = graph.NodeID(s.g.N() + 7)
		return &tree.Snapshot{Nodes: nodes, Parents: ts.Parents}
	}
	snap := s.Export()
	for i, ct := range snap.Trees {
		if len(ct.Tree.Nodes) > 1 {
			snap.Trees[i].Tree = corrupt(ct.Tree)
			break
		}
	}
	if _, err := FromSnapshot(snap); err == nil {
		t.Fatal("corrupt landmark tree accepted")
	}
	snap = s.Export()
	if len(snap.Covers) == 0 {
		t.Fatal("no dense scale: the cover case is vacuous")
	}
	cs := *snap.Covers[0].Cover
	cs.Trees = slices.Clone(cs.Trees)
	for i, ts := range cs.Trees {
		if len(ts.Nodes) > 1 {
			cs.Trees[i] = corrupt(ts)
			break
		}
	}
	snap.Covers[0].Cover = &cs
	if _, err := FromSnapshot(snap); err == nil {
		t.Fatal("corrupt cover tree accepted")
	}
}

// TestLandmarkTreesByDepthMatchSort holds every landmark tree of built
// schemes to the sort its by-depth order replaced: each member's depth
// equals its center's row distance bit for bit, the by-depth order
// FromPaths read off the row equals the (depth, name) sort, and a
// FromSnapshot round trip, which sorts, gives the same order. Unit and
// power-of-two weights make many depths tie.
func TestLandmarkTreesByDepthMatchSort(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		p    Params
	}{
		{"gnp-k2", gen.Gnp(61, 140, 0.04, gen.Uniform(1, 5)), Params{K: 2, Seed: 1, SFactor: 0.5}},
		{"gnp-k3", gen.Gnp(62, 160, 0.035, gen.Uniform(1, 8)), Params{K: 3, Seed: 2, SFactor: 1}},
		{"gnp-k4", gen.Gnp(63, 160, 0.035, gen.Uniform(1, 8)), Params{K: 4, Seed: 3, SFactor: 1}},
		{"geometric-k3", gen.Geometric(64, 140, 0.17), Params{K: 3, Seed: 4, SFactor: 1}},
		{"unit-k3", gen.Gnp(65, 140, 0.04, gen.Unit()), Params{K: 3, Seed: 5, SFactor: 1}},
		{"pow2-k3", gen.Gnp(66, 140, 0.04, gen.PowerOfTwo(4)), Params{K: 3, Seed: 6, SFactor: 0.5}},
	}
	for _, c := range cases {
		all := sssp.AllPairs(c.g)
		s, err := BuildWithAPSP(c.g, all, c.p)
		if err != nil {
			t.Fatal(err)
		}
		ties := 0
		for center, lt := range s.trees {
			tr, row := lt.t, all[center]
			want := make([]int32, tr.Len())
			for i := range want {
				want[i] = int32(i)
				if d, v := tr.Depth(i), tr.Node(i); d != row.Dist[v] {
					t.Fatalf("%s: center %d member %d depth %v, row distance %v", c.name, center, v, d, row.Dist[v])
				}
			}
			slices.SortFunc(want, func(a, b int32) int {
				if d := cmp.Compare(tr.Depth(int(a)), tr.Depth(int(b))); d != 0 {
					return d
				}
				return cmp.Compare(c.g.Name(tr.Node(int(a))), c.g.Name(tr.Node(int(b))))
			})
			for i := 1; i < len(want); i++ {
				if tr.Depth(int(want[i])) == tr.Depth(int(want[i-1])) {
					ties++
				}
			}
			if !slices.Equal(tr.ByDepth(), want) {
				t.Fatalf("%s: center %d by-depth order %v, sorted %v", c.name, center, tr.ByDepth(), want)
			}
			back, err := tree.FromSnapshot(c.g, tr.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(back.ByDepth(), want) {
				t.Fatalf("%s: center %d by-depth order after FromSnapshot %v, want %v", c.name, center, back.ByDepth(), want)
			}
		}
		if c.name == "unit-k3" && ties == 0 {
			t.Fatal("unit weights gave no depth ties: the name order is untested")
		}
	}
}
