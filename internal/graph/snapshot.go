package graph

import "fmt"

// Snapshot is the exported persistent form of a Graph: the exact CSR
// layout, names, and optional display labels. Round-tripping through a
// Snapshot reproduces the graph bit-for-bit — including port numbering,
// which routing tables reference — so a scheme serialized against a
// graph keeps routing correctly after both are rehydrated.
type Snapshot struct {
	Names   []uint64  // index -> external name
	Offsets []int32   // CSR offsets, len n+1
	Targets []NodeID  // CSR neighbor ids
	Weights []float64 // CSR edge weights
	RevPort []int32   // reverse port of each directed edge
	M       int       // number of undirected edges
	// Labels holds the optional string labels as parallel slices
	// (LabelIDs[i] carries Labels[i]), sorted by node id.
	LabelIDs []NodeID
	Labels   []string
}

// Snapshot captures the graph's persistent state.
func (g *Graph) Snapshot() *Snapshot {
	s := &Snapshot{
		Names:   g.names,
		Offsets: g.offsets,
		Targets: g.targets,
		Weights: g.weights,
		RevPort: g.revPort,
		M:       g.m,
	}
	for u := NodeID(0); int(u) < g.N(); u++ {
		if label, ok := g.Label(u); ok {
			s.LabelIDs = append(s.LabelIDs, u)
			s.Labels = append(s.Labels, label)
		}
	}
	return s
}

// FromSnapshot rehydrates a Graph, validating structural invariants so
// a corrupt or truncated snapshot fails loudly instead of routing into
// undefined behavior.
func FromSnapshot(s *Snapshot) (*Graph, error) {
	n := len(s.Names)
	if n == 0 {
		return nil, ErrEmpty
	}
	if len(s.Offsets) != n+1 {
		return nil, fmt.Errorf("graph: snapshot has %d offsets for %d nodes", len(s.Offsets), n)
	}
	total := int(s.Offsets[n])
	if len(s.Targets) != total || len(s.Weights) != total || len(s.RevPort) != total {
		return nil, fmt.Errorf("graph: snapshot arrays disagree: %d targets, %d weights, %d revports, want %d",
			len(s.Targets), len(s.Weights), len(s.RevPort), total)
	}
	if total != 2*s.M {
		return nil, fmt.Errorf("graph: snapshot has %d directed edges for m=%d", total, s.M)
	}
	if len(s.LabelIDs) != len(s.Labels) {
		return nil, fmt.Errorf("graph: snapshot has %d label ids for %d labels", len(s.LabelIDs), len(s.Labels))
	}
	g := &Graph{
		names:   s.Names,
		byName:  make(map[uint64]NodeID, n),
		offsets: s.Offsets,
		targets: s.Targets,
		weights: s.Weights,
		revPort: s.RevPort,
		m:       s.M,
	}
	for id, name := range g.names {
		if prev, dup := g.byName[name]; dup {
			return nil, fmt.Errorf("graph: snapshot repeats name %#x at nodes %d and %d", name, prev, id)
		}
		g.byName[name] = NodeID(id)
	}
	for u := 0; u < n; u++ {
		if s.Offsets[u] > s.Offsets[u+1] {
			return nil, fmt.Errorf("graph: snapshot offsets not monotone at node %d", u)
		}
	}
	for i, v := range s.Targets {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: snapshot edge %d targets unknown node %d", i, v)
		}
	}
	// Every edge must be one AddEdge accepts, and its reverse port must
	// point back across the same physical edge.
	for u := NodeID(0); int(u) < n; u++ {
		for i := s.Offsets[u]; i < s.Offsets[u+1]; i++ {
			v := s.Targets[i]
			if v == u {
				return nil, fmt.Errorf("graph: snapshot has a self-loop on node %d", u)
			}
			if w := s.Weights[i]; !validWeight(w) {
				return nil, fmt.Errorf("graph: snapshot edge %d→%d has invalid weight %v", u, v, w)
			}
			rp := s.RevPort[i]
			if rp < 0 || s.Offsets[v]+rp >= s.Offsets[v+1] {
				return nil, fmt.Errorf("graph: snapshot reverse port of edge %d→%d out of range", u, v)
			}
			j := s.Offsets[v] + rp
			if s.Targets[j] != u || s.Weights[j] != s.Weights[i] {
				return nil, fmt.Errorf("graph: snapshot reverse port of edge %d→%d inconsistent", u, v)
			}
		}
	}
	if len(s.LabelIDs) > 0 {
		g.labels = make(map[string]NodeID, len(s.LabelIDs))
		g.labelOf = make(map[NodeID]string, len(s.LabelIDs))
		for i, u := range s.LabelIDs {
			if u < 0 || int(u) >= n {
				return nil, fmt.Errorf("graph: snapshot label %q on unknown node %d", s.Labels[i], u)
			}
			g.labels[s.Labels[i]] = u
			g.labelOf[u] = s.Labels[i]
		}
	}
	return g, nil
}
