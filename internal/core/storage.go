package core

import (
	"slices"

	"compactroute/internal/bitsize"
	"compactroute/internal/graph"
	"compactroute/internal/sssp"
)

// account charges every stored word to its node, reproducing the
// storage model of §3.2 and §3.5:
//
//   - decomposition state: the range set a(u,·) and per-level class,
//   - sparse levels: c(u,i), b(u,i), the node's own label λ(T(c),u),
//     and τ(T(c),x) for every landmark tree containing x,
//   - dense levels: the scale and home-tree pointer w(u,i), and
//     φ(T,x) for every cover tree containing x.
func (s *Scheme) account() {
	n := s.g.N()
	s.acct = bitsize.NewAccountant(n)
	idb := bitsize.IDBits(n)
	rangeBits := bitsize.Bits(bitsize.Log2Ceil(s.dec.Cap() + 2))
	if rangeBits < 1 {
		rangeBits = 1
	}

	for u := 0; u < n; u++ {
		// Ranges a(u, 0..k+1) and the dense/sparse classification.
		s.acct.Add(u, "decomposition", bitsize.Bits(s.k+2)*rangeBits+bitsize.Bits(s.k+1))
		for i := 0; i <= s.k; i++ {
			info := &s.levels[u][i]
			switch {
			case info.skip:
				// One flag bit, already charged with the class bits.
			case info.dense:
				// scale j, home tree index, root pointer w(u,i).
				s.acct.Add(u, "dense-level-pointers", rangeBits+32+idb)
			default:
				// c(u,i), b(u,i), λ(T(c),u).
				s.acct.Add(u, "sparse-level-pointers", idb+8+s.selfLabels[u][i].Bits())
			}
		}
	}
	// τ(T(c), x) for every member x of every landmark tree. The trees
	// price their members independently, so they fan out; the charges
	// are then added in center order, one category update per tree.
	centers := make([]graph.NodeID, 0, len(s.trees))
	for c := range s.trees {
		centers = append(centers, c)
	}
	slices.Sort(centers)
	treeBits := make([][]bitsize.Bits, len(centers))
	sssp.ParallelFor(len(centers), 0, func(ci int) {
		lt := s.trees[centers[ci]]
		bits := make([]bitsize.Bits, lt.t.Len())
		for i := range bits {
			bits[i] = lt.ni.StorageBits(i)
		}
		treeBits[ci] = bits
	})
	for ci, c := range centers {
		t, bits := s.trees[c].t, treeBits[ci]
		s.acct.AddEach("landmark-trees", len(bits), func(i int) (int, bitsize.Bits) {
			return int(t.Node(i)), bits[i]
		})
	}
	// φ(T, x) for every member of every cover tree.
	for _, cas := range s.covers {
		for ti, t := range cas.cov.Trees {
			rt := cas.routes[ti]
			s.acct.AddEach("cover-trees", t.Len(), func(i int) (int, bitsize.Bits) {
				return int(t.Node(i)), rt.StorageBits(i)
			})
		}
	}
}

// NodeTableBits returns the measured table size of one node.
func (s *Scheme) NodeTableBits(u graph.NodeID) bitsize.Bits {
	return s.acct.NodeBits(int(u))
}

// CategoryBits returns the total bits charged under one storage
// category (see account for the category names).
func (s *Scheme) CategoryBits(category string) bitsize.Bits {
	return s.acct.CategoryBits(category)
}
