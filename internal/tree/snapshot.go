package tree

import (
	"fmt"
	"slices"

	"compactroute/internal/graph"
)

// Snapshot is the exported persistent form of a Tree: the member list
// in tree-index (BFS) order plus each member's parent as a tree index.
// All derived structure — ports, weights, DFS intervals, heavy paths,
// the by-depth order — is a deterministic function of (graph, parent
// relation), so rehydration rebuilds it identically through the same
// constructor instead of storing it.
type Snapshot struct {
	Nodes   []graph.NodeID // tree index -> graph id; Nodes[0] is the root
	Parents []int32        // tree index -> parent tree index; Parents[0] = -1
}

// Snapshot captures the tree's persistent state.
func (t *Tree) Snapshot() *Snapshot {
	return &Snapshot{Nodes: t.nodes, Parents: t.parent}
}

// FromSnapshot rehydrates a Tree over g. The rebuilt tree is
// structurally identical to the captured one: the constructor indexes
// nodes in BFS order with children sorted by id, the same order the
// original construction used. A corrupt snapshot (an id outside the
// graph, a node listed twice, a parent out of range, a cycle, a parent
// that is not adjacent) returns an error before the graph is indexed
// with it.
func FromSnapshot(g *graph.Graph, s *Snapshot) (*Tree, error) {
	if len(s.Nodes) == 0 {
		return nil, fmt.Errorf("tree: empty snapshot")
	}
	if len(s.Parents) != len(s.Nodes) {
		return nil, fmt.Errorf("tree: snapshot has %d parents for %d nodes", len(s.Parents), len(s.Nodes))
	}
	if s.Parents[0] != -1 {
		return nil, fmt.Errorf("tree: snapshot root has parent %d", s.Parents[0])
	}
	n := g.N()
	for i, v := range s.Nodes {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("tree: snapshot node %d is %d, outside the graph's %d nodes", i, v, n)
		}
	}
	sc := getScratch(n)
	defer scratchPool.Put(sc)
	if len(sc.parent) < n {
		sc.parent = make([]graph.NodeID, n)
	}
	parent := sc.parent
	members := sc.ids[:0]
	for i := 1; i < len(s.Nodes); i++ {
		p := s.Parents[i]
		if p < 0 || int(p) >= len(s.Nodes) {
			return nil, fmt.Errorf("tree: snapshot node %d has parent index %d out of range", i, p)
		}
		parent[s.Nodes[i]] = s.Nodes[p]
		members = append(members, s.Nodes[i])
	}
	sc.ids = members
	slices.Sort(members)
	t, err := fromParents(sc, g, s.Nodes[0], parent, members, nil)
	if err != nil {
		return nil, err
	}
	// The constructor re-derives BFS order; a snapshot written by
	// Snapshot() is already in that order, so indices must agree.
	for i, id := range s.Nodes {
		if t.nodes[i] != id {
			return nil, fmt.Errorf("tree: snapshot not in canonical BFS order at index %d", i)
		}
	}
	return t, nil
}
