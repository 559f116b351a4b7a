package core

import (
	"fmt"

	"compactroute/internal/bitsize"
	"compactroute/internal/covroute"
	"compactroute/internal/graph"
	"compactroute/internal/nitree"
	"compactroute/internal/sim"
	"compactroute/internal/treeroute"
)

// labelT is the tree-routing label type carried in headers.
type labelT = treeroute.Label

// stage of the phase router.
type stage uint8

const (
	stageStart stage = iota // at the source, about to open phase `level`
	stageSparseToCenter
	stageSparseSearch
	stageSparseReturn
	stageDenseLookup
)

// header is the routing header of the full scheme: the §3.3/§3.6
// iterative protocol's in-flight state.
type header struct {
	dst   uint64
	src   graph.NodeID // identifies the phase anchor (sanity checks)
	at    int32        // tree index of the current node on a sparse leg
	level int          // current phase i ∈ 1..k
	stage stage

	// Sparse phase state. lt is the phase's tree T(c), resolved once
	// when the phase opens.
	lt     *landmarkTree
	leg    labelT // current labeled-routing leg
	ret    labelT // λ(T(c), src): the return address
	search *nitree.Search
	// Dense phase state: the home tree's Lemma 7 structure and lookup.
	cr  *covroute.Scheme
	cov *covroute.Route
}

// Bits reports the header size: destination name, counters, and the
// live legs/labels. The phase's tree and the position on it are not
// charged: the level and the source name the tree, and the position is
// a function of the tree and the current node.
func (h *header) Bits() bitsize.Bits {
	b := bitsize.NameBits + 16 // name + level/stage counters
	b += h.leg.Bits() + h.ret.Bits()
	if h.search != nil {
		b += h.search.HeaderBits()
	}
	if h.cov != nil {
		b += h.cov.HeaderBits()
	}
	return b
}

// Name implements sim.Router.
func (s *Scheme) Name() string {
	if s.mode != Combined {
		return fmt.Sprintf("agm06-k%d-%s", s.k, s.mode)
	}
	return fmt.Sprintf("agm06-k%d", s.k)
}

// Begin implements sim.Router.
func (s *Scheme) Begin(src graph.NodeID, dstName uint64) (sim.Header, error) {
	if int(src) < 0 || int(src) >= s.g.N() {
		return nil, fmt.Errorf("core: invalid source %d", src)
	}
	return &header{dst: dstName, src: src, level: 0, stage: stageStart}, nil
}

// Step implements sim.Router: one local decision of the iterative
// protocol. Only x's local state and the header are consulted.
func (s *Scheme) Step(x graph.NodeID, hh sim.Header) (sim.Action, int, error) {
	h, ok := hh.(*header)
	if !ok {
		return 0, 0, fmt.Errorf("core: foreign header %T", hh)
	}
	// Self-delivery short-circuit: the source recognizes its own name.
	if h.stage == stageStart && s.g.Name(x) == h.dst {
		return sim.Delivered, 0, nil
	}
	for guard := 0; guard < 4*s.k+16; guard++ {
		switch h.stage {
		case stageStart:
			if x != h.src {
				return 0, 0, fmt.Errorf("core: phase start at %d, expected source %d", x, h.src)
			}
			if h.level > s.k {
				// Unreachable by construction: the terminal phase
				// spans V (DESIGN.md #1). Fail loudly if violated.
				return sim.Failed, 0, nil
			}
			info := &s.levels[x][h.level]
			if info.skip {
				// Dense level 0: F(u,0) = {u}, nothing to search.
				h.level++
				continue
			}
			if info.dense {
				h.cr = s.covers[info.scale].routes[info.treeIdx]
				cov, err := h.cr.NewRoute(h.dst, x)
				if err != nil {
					return 0, 0, err
				}
				h.cov = cov
				h.stage = stageDenseLookup
				continue
			}
			h.lt = s.trees[info.center]
			h.ret = s.selfLabels[x][h.level]
			if x == info.center {
				h.search = h.lt.ni.NewSearch(h.dst, int(info.bound))
				h.stage = stageSparseSearch
				continue
			}
			at, ok := h.lt.t.Index(x)
			if !ok {
				return 0, 0, fmt.Errorf("core: source %d missing from the tree of %d", x, info.center)
			}
			// Route to the root; the root's label is the canonical
			// empty label (preorder 0, no light hops).
			h.at = int32(at)
			h.leg = labelT{Pre: 0}
			h.stage = stageSparseToCenter
			continue

		case stageSparseToCenter:
			arrived, port, next, err := h.lt.ni.Labeled().Step(x, int(h.at), h.leg)
			if err != nil {
				return 0, 0, err
			}
			if !arrived {
				h.at = int32(next)
				return sim.Forward, port, nil
			}
			info := &s.levels[h.src][h.level]
			h.search = h.lt.ni.NewSearch(h.dst, int(info.bound))
			h.stage = stageSparseSearch
			continue

		case stageSparseSearch:
			act, port, err := h.lt.ni.Step(x, h.search)
			if err != nil {
				return 0, 0, err
			}
			switch act {
			case nitree.Forward:
				return sim.Forward, port, nil
			case nitree.Delivered:
				return sim.Delivered, 0, nil
			default: // back at the root (tree index 0) with a negative response
				h.search = nil
				h.at = 0
				h.leg = h.ret
				h.stage = stageSparseReturn
				continue
			}

		case stageSparseReturn:
			arrived, port, next, err := h.lt.ni.Labeled().Step(x, int(h.at), h.leg)
			if err != nil {
				return 0, 0, err
			}
			if !arrived {
				h.at = int32(next)
				return sim.Forward, port, nil
			}
			h.level++
			h.stage = stageStart
			continue

		case stageDenseLookup:
			act, port, err := h.cr.Step(x, h.cov)
			if err != nil {
				return 0, 0, err
			}
			switch act {
			case covroute.Forward:
				return sim.Forward, port, nil
			case covroute.Delivered:
				return sim.Delivered, 0, nil
			default: // negative, already back at the source
				h.cov = nil
				h.level++
				h.stage = stageStart
				continue
			}
		}
	}
	return 0, 0, fmt.Errorf("core: step did not make progress at %d", x)
}

// PhaseResult describes one phase of a traced route.
type PhaseResult struct {
	Level  int
	Dense  bool
	Cost   float64
	Found  bool
	AUBits int // a(u,level): the phase's range, for T10 bounds
}

// RouteTrace routes src → (node named dstName) outside the engine,
// recording per-phase costs for experiment T10. The walk still crosses
// only real edges.
func (s *Scheme) RouteTrace(src graph.NodeID, dstName uint64) (delivered bool, phases []PhaseResult, total float64, err error) {
	delivered, phases, total, _, err = s.RouteTracePath(src, dstName)
	return delivered, phases, total, err
}

// RouteTracePath is RouteTrace plus the traversed node sequence, for
// visualization (cmd/routesim -dot).
func (s *Scheme) RouteTracePath(src graph.NodeID, dstName uint64) (delivered bool, phases []PhaseResult, total float64, path []graph.NodeID, err error) {
	hh, err := s.Begin(src, dstName)
	if err != nil {
		return false, nil, 0, nil, err
	}
	h := hh.(*header)
	cur := src
	path = []graph.NodeID{src}
	phaseCost := 0.0
	lastLevel := 0
	flush := func(found bool) {
		if lastLevel > s.k {
			return
		}
		info := &s.levels[src][lastLevel]
		phases = append(phases, PhaseResult{
			Level:  lastLevel,
			Dense:  info.dense,
			Cost:   phaseCost,
			Found:  found,
			AUBits: s.dec.Range(src, lastLevel),
		})
		phaseCost = 0
	}
	maxHops := 64 * s.g.N() * (s.k + 2)
	for hop := 0; ; hop++ {
		if hop > maxHops {
			return false, phases, total, path, fmt.Errorf("core: trace exceeded %d hops", maxHops)
		}
		if h.level != lastLevel {
			flush(false)
			lastLevel = h.level
		}
		act, port, err := s.Step(cur, h)
		if err != nil {
			return false, phases, total, path, err
		}
		switch act {
		case sim.Delivered:
			flush(true)
			return true, phases, total, path, nil
		case sim.Failed:
			flush(false)
			return false, phases, total, path, nil
		case sim.Forward:
			w := s.g.EdgeAt(cur, port).Weight
			phaseCost += w
			total += w
			cur = s.g.EdgeAt(cur, port).To
			path = append(path, cur)
		}
	}
}
