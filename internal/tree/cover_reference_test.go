package tree_test

import (
	"testing"

	"compactroute/internal/cover"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/tree"
)

// TestCoverTreesMatchMapBuilder holds every cover tree, built from a
// member-filtered light-edge Dijkstra, to the map builder the array
// constructor replaced.
func TestCoverTreesMatchMapBuilder(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := gen.Gnp(seed, 120, 0.04, gen.Uniform(1, 5))
		member := make([]bool, g.N())
		for v := range member {
			member[v] = v%5 != 0
		}
		for _, m := range [][]bool{nil, member} {
			for _, rho := range []float64{1, 3, 8} {
				cov, err := cover.Build(g, cover.Params{K: 3, Rho: rho, Member: m})
				if err != nil {
					t.Fatal(err)
				}
				for ti, tr := range cov.Trees {
					ref, err := tree.RefRebuild(tr)
					if err != nil {
						t.Fatal(err)
					}
					if err := tree.SameTree(tr, ref); err != nil {
						t.Fatalf("seed %d ρ=%v tree %d: %v", seed, rho, ti, err)
					}
				}
			}
		}
	}
}

// TestFromSnapshotRejectsCorrupt feeds FromSnapshot inconsistent
// snapshots of a 5-node path: each must return an error, not panic.
func TestFromSnapshotRejectsCorrupt(t *testing.T) {
	g := gen.Path(3, 5, gen.Unit())
	valid := tree.Snapshot{Nodes: []graph.NodeID{0, 1, 2, 3, 4}, Parents: []int32{-1, 0, 1, 2, 3}}
	if _, err := tree.FromSnapshot(g, &valid); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for _, c := range []struct {
		name    string
		nodes   []graph.NodeID
		parents []int32
	}{
		{"out-of-range id", []graph.NodeID{0, 1, 7, 3, 4}, []int32{-1, 0, 1, 2, 3}},
		{"out-of-range root", []graph.NodeID{9, 1}, []int32{-1, 0}},
		{"negative id", []graph.NodeID{0, 1, -3, 3, 4}, []int32{-1, 0, 1, 2, 3}},
		{"repeated node", []graph.NodeID{0, 1, 2, 2}, []int32{-1, 0, 1, 1}},
		{"root repeated", []graph.NodeID{0, 1, 0}, []int32{-1, 0, 1}},
		{"parent index out of range", []graph.NodeID{0, 1, 2}, []int32{-1, 0, 9}},
		{"parent cycle", []graph.NodeID{0, 1, 2, 3}, []int32{-1, 0, 3, 2}},
		{"parent not adjacent", []graph.NodeID{0, 1, 2, 3, 4}, []int32{-1, 0, 0, 2, 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := tree.FromSnapshot(g, &tree.Snapshot{Nodes: c.nodes, Parents: c.parents}); err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
		})
	}
}
