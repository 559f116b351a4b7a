package landmark

import (
	"fmt"

	"compactroute/internal/graph"
)

// Snapshot is the exported persistent form of a Hierarchy: ranks,
// capacities, and the per-node per-level centers — everything the
// routing scheme consults after construction. The S sets and the
// members transpose are excluded: they can be Θ(n²) at small k, exist
// to seed tree construction, and the enclosing scheme persists the
// materialized trees themselves. A rehydrated hierarchy answers Rank,
// TopRank, SCap/SCapAt, M, and Center; S, Members, and InS report
// empty.
type Snapshot struct {
	K       int
	Rank    []int8
	Top     int
	SCap    int
	SCapTop int
	MRank   [][]int8
	Centers [][]graph.NodeID
}

// Snapshot captures the hierarchy's persistent state.
func (h *Hierarchy) Snapshot() *Snapshot {
	return &Snapshot{
		K:       h.k,
		Rank:    h.rank,
		Top:     h.top,
		SCap:    h.sCap,
		SCapTop: h.sCapTop,
		MRank:   h.mRank,
		Centers: h.centers,
	}
}

// FromSnapshot rehydrates a Hierarchy over g without S sets (see
// Snapshot for what that implies).
func FromSnapshot(g *graph.Graph, s *Snapshot) (*Hierarchy, error) {
	n := g.N()
	if s.K < 1 {
		return nil, fmt.Errorf("landmark: snapshot k=%d", s.K)
	}
	if len(s.Rank) != n || len(s.MRank) != n || len(s.Centers) != n {
		return nil, fmt.Errorf("landmark: snapshot sized for %d/%d/%d nodes, graph has %d",
			len(s.Rank), len(s.MRank), len(s.Centers), n)
	}
	for u := 0; u < n; u++ {
		if len(s.MRank[u]) != s.K+1 || len(s.Centers[u]) != s.K+1 {
			return nil, fmt.Errorf("landmark: node %d has %d/%d levels, want %d",
				u, len(s.MRank[u]), len(s.Centers[u]), s.K+1)
		}
		for i := 0; i <= s.K; i++ {
			if c := s.Centers[u][i]; c < 0 || int(c) >= n {
				return nil, fmt.Errorf("landmark: node %d level %d has center %d out of range", u, i, c)
			}
		}
	}
	return &Hierarchy{
		g:       g,
		k:       s.K,
		rank:    s.Rank,
		top:     s.Top,
		sCap:    s.SCap,
		sCapTop: s.SCapTop,
		mRank:   s.MRank,
		centers: s.Centers,
	}, nil
}
