package baseline

import (
	"fmt"
	"math"
	"sort"

	"compactroute/internal/bitsize"
	"compactroute/internal/graph"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
	"compactroute/internal/xrand"
)

// LandmarkChain is a scale-free name-independent scheme in the same
// Õ(n^{1/k}) space family as the exponential-stretch schemes the paper
// cites [7,8,6] (DESIGN.md substitution #6). Landmarks are sampled in
// k−1 nested levels; every node knows a tree route to every *top*
// landmark; each node's location is published as a chain of pointers:
// its name hashes to a top landmark, which stores a hop-by-hop pointer
// path down through its nearest level-(k−2), …, level-1 landmarks to
// the node itself. A lookup climbs to the hashed top landmark and
// follows the chain. Space stays Õ(n^{1/k}) per node and is
// independent of Δ, but a lookup for a *nearby* node may traverse the
// whole network — the unbounded/exponential stretch the paper's O(k)
// result eliminates.
type LandmarkChain struct {
	g    *graph.Graph
	k    int
	tops []graph.NodeID
	// topPort[t][u]: port at u toward tops[t] in its SPT.
	topPort [][]int32
	// chain[u] maps (name, legIndex) → port: the published pointer
	// paths passing through u.
	chain []map[chainKey]int32
	// legs[name] = number of legs in the chain of that name.
	legs map[uint64]uint8
	seed uint64
	acct *bitsize.Accountant
}

type chainKey struct {
	name uint64
	leg  uint8
}

// LandmarkChainParams configures the baseline.
type LandmarkChainParams struct {
	K    int
	Seed uint64
}

// NewLandmarkChain builds the scheme from all-pairs shortest paths:
// each node's chain waypoints come from its own row, and each leg's
// path from the row of the landmark it starts at.
func NewLandmarkChain(g *graph.Graph, all []*sssp.Result, p LandmarkChainParams) (*LandmarkChain, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("baseline: landmarkchain k must be ≥ 1")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("baseline: landmarkchain needs a connected graph")
	}
	n := g.N()
	l := &LandmarkChain{
		g:     g,
		k:     p.K,
		chain: make([]map[chainKey]int32, n),
		legs:  make(map[uint64]uint8, n),
		seed:  p.Seed,
		acct:  bitsize.NewAccountant(n),
	}
	for i := range l.chain {
		l.chain[i] = make(map[chainKey]int32)
	}
	// Nested levels: rank(v) = number of consecutive successful coin
	// flips with probability n^{-1/k}.
	rng := xrand.New(p.Seed ^ 0x17ead)
	keep := math.Pow(float64(n), -1/float64(p.K))
	rank := make([]int, n)
	for v := 0; v < n; v++ {
		r := 0
		for j := 1; j <= p.K-1; j++ {
			if rng.Bool(keep) {
				r = j
			} else {
				break
			}
		}
		rank[v] = r
	}
	top := p.K - 1
	for {
		for v := 0; v < n; v++ {
			if rank[v] >= top {
				l.tops = append(l.tops, graph.NodeID(v))
			}
		}
		if len(l.tops) > 0 {
			break
		}
		top-- // degenerate sampling: lower the top level until occupied
	}
	sort.Slice(l.tops, func(i, j int) bool { return l.tops[i] < l.tops[j] })

	// Every node stores its SPT port toward every top landmark.
	l.topPort = make([][]int32, len(l.tops))
	for ti, t := range l.tops {
		ports := make([]int32, n)
		copy(ports, all[t].ParentPort) // port at v toward t (SPT parent)
		l.topPort[ti] = ports
	}

	// Publish chains: top = hash(name); then nearest landmark of each
	// lower level (from the node itself); finally the node. Each leg is
	// a shortest path from its starting landmark's row; every node
	// along it stores the next port for (name, leg).
	for v := 0; v < n; v++ {
		name := g.Name(graph.NodeID(v))
		ti := int(xrand.Hash64(p.Seed, name) % uint64(len(l.tops)))
		wps := []graph.NodeID{l.tops[ti]}
		for lev := top - 1; lev >= 1; lev-- {
			c := all[v].Closest(1, func(w graph.NodeID) bool { return rank[w] >= lev })
			if len(c) == 1 && c[0] != wps[len(wps)-1] {
				wps = append(wps, c[0])
			}
		}
		if wps[len(wps)-1] != graph.NodeID(v) {
			wps = append(wps, graph.NodeID(v))
		}
		l.legs[name] = uint8(len(wps) - 1)
		for leg := 0; leg+1 < len(wps); leg++ {
			path := all[wps[leg]].PathTo(wps[leg+1])
			for i := 0; i+1 < len(path); i++ {
				port := g.PortTo(path[i], path[i+1])
				l.chain[path[i]][chainKey{name, uint8(leg)}] = int32(port)
			}
		}
	}

	// Storage accounting.
	idb := bitsize.IDBits(n)
	for u := 0; u < n; u++ {
		pb := bitsize.IDBits(g.Degree(graph.NodeID(u)))
		l.acct.Add(u, "top-landmark-ports", bitsize.Bits(len(l.tops))*(idb+pb))
		l.acct.Add(u, "chain-pointers", bitsize.Bits(len(l.chain[u]))*(bitsize.NameBits+8+pb))
	}
	return l, nil
}

// Tops returns the number of top landmarks.
func (l *LandmarkChain) Tops() int { return len(l.tops) }

// MaxTableBits returns the largest per-node table.
func (l *LandmarkChain) MaxTableBits() bitsize.Bits { return l.acct.MaxNodeBits() }

// MeanTableBits returns the mean per-node table size.
func (l *LandmarkChain) MeanTableBits() float64 { return l.acct.MeanNodeBits() }

// lcHeader: climb to the hashed top landmark, then follow chain legs.
type lcHeader struct {
	dst    uint64
	topIdx int32
	leg    int16 // -1 while climbing to the top landmark
}

// Bits implements sim.Header: the in-flight header size.
func (h *lcHeader) Bits() bitsize.Bits { return bitsize.NameBits + 48 }

// Name implements sim.Router.
func (l *LandmarkChain) Name() string { return fmt.Sprintf("landmark-chain-k%d", l.k) }

// Begin implements sim.Router.
func (l *LandmarkChain) Begin(src graph.NodeID, dstName uint64) (sim.Header, error) {
	ti := int32(xrand.Hash64(l.seed, dstName) % uint64(len(l.tops)))
	return &lcHeader{dst: dstName, topIdx: ti, leg: -1}, nil
}

// Step implements sim.Router.
func (l *LandmarkChain) Step(x graph.NodeID, hh sim.Header) (sim.Action, int, error) {
	h, ok := hh.(*lcHeader)
	if !ok {
		return 0, 0, fmt.Errorf("baseline: foreign header %T", hh)
	}
	if l.g.Name(x) == h.dst {
		return sim.Delivered, 0, nil
	}
	if h.leg < 0 {
		t := l.tops[h.topIdx]
		if x == t {
			h.leg = 0
		} else {
			return sim.Forward, int(l.topPort[h.topIdx][x]), nil
		}
	}
	// Follow the published chain.
	for {
		port, ok := l.chain[x][chainKey{h.dst, uint8(h.leg)}]
		if ok {
			return sim.Forward, int(port), nil
		}
		// End of a leg at a waypoint: advance to the next leg.
		legs, known := l.legs[h.dst]
		if !known || int(h.leg) >= int(legs) {
			return sim.Failed, 0, nil // name not published
		}
		h.leg++
	}
}
