// Package covroute implements Lemma 7 of the paper: name-independent
// error-reporting routing on a cover tree, with route length at most
// 4·rad(T) + 2k·maxE(T) and a closed error path of the same bound for
// names absent from the tree.
//
// The underlying [3] construction is from a companion paper; per
// DESIGN.md substitution #3 we implement a rendezvous scheme with the
// same interface and bounds. Every member is addressable by its DFS
// preorder number through interval routing: a node stores its own
// interval, its parent port, and one (interval, port) entry per child,
// which is O(deg_T) words — Θ(1) amortized over the tree. An external
// name hashes to a preorder number; the member owning that number (the
// rendezvous) stores the Lemma 5 label of every member whose name
// hashes to it. A route therefore runs source → rendezvous → target,
// each leg a tree path of length ≤ 2·rad(T), for a total of ≤ 4·rad(T)
// — strictly inside the lemma's budget. A miss at the rendezvous
// reports back to the source (whose label rides in the header),
// closing the path within the same bound.
package covroute

import (
	"fmt"
	"sort"

	"compactroute/internal/bitsize"
	"compactroute/internal/graph"
	"compactroute/internal/tree"
	"compactroute/internal/treeroute"
	"compactroute/internal/xrand"
)

// childEntry is one interval-routing record.
type childEntry struct {
	pre, post int32
	port      int32 // graph port into the child
}

// local is one member's interval-routing state.
type local struct {
	pre, post  int32
	parentPort int32
	children   []childEntry // sorted by pre
}

// Scheme is the Lemma 7 structure for one tree.
type Scheme struct {
	t    *tree.Tree
	lr   *treeroute.Scheme
	seed uint64

	locals []local
	// byPre[p] = tree index of the member with preorder p.
	byPre []int32
	// rendezvous[i] maps external names hashing to member i onto their
	// labels.
	rendezvous []map[uint64]treeroute.Label
}

// New builds the rendezvous routing structures over t.
func New(t *tree.Tree, seed uint64) *Scheme {
	m := t.Len()
	s := &Scheme{
		t:          t,
		lr:         treeroute.New(t),
		seed:       seed,
		locals:     make([]local, m),
		byPre:      make([]int32, m),
		rendezvous: make([]map[uint64]treeroute.Label, m),
	}
	for i := 0; i < m; i++ {
		lo := local{
			pre:        int32(t.Pre(i)),
			post:       int32(t.Post(i)),
			parentPort: int32(t.ParentPort(i)),
		}
		for _, c := range t.Children(i) {
			lo.children = append(lo.children, childEntry{
				pre:  int32(t.Pre(int(c))),
				post: int32(t.Post(int(c))),
				port: int32(t.ChildPort(int(c))),
			})
		}
		sort.Slice(lo.children, func(a, b int) bool { return lo.children[a].pre < lo.children[b].pre })
		s.locals[i] = lo
		s.byPre[t.Pre(i)] = int32(i)
	}
	g := t.Graph()
	for i := 0; i < m; i++ {
		name := g.Name(t.Node(i))
		rv := s.rendezvousPre(name)
		owner := int(s.byPre[rv])
		if s.rendezvous[owner] == nil {
			s.rendezvous[owner] = make(map[uint64]treeroute.Label)
		}
		s.rendezvous[owner][name] = s.lr.Label(i)
	}
	return s
}

// rendezvousPre maps an external name to a preorder number.
func (s *Scheme) rendezvousPre(name uint64) int32 {
	return int32(xrand.Hash64(s.seed, name) % uint64(s.t.Len()))
}

// Tree returns the underlying tree.
func (s *Scheme) Tree() *tree.Tree { return s.t }

// Labeled returns the embedded Lemma 5 scheme.
func (s *Scheme) Labeled() *treeroute.Scheme { return s.lr }

// MaxRendezvousLoad returns the largest number of names stored at one
// rendezvous member (expected O(1), O(log m/log log m) whp).
func (s *Scheme) MaxRendezvousLoad() int {
	max := 0
	for _, r := range s.rendezvous {
		if len(r) > max {
			max = len(r)
		}
	}
	return max
}

// StorageBits returns the accounting size of member i's tables:
// interval routing entries, µ(T,u), its own label, and rendezvous
// entries.
func (s *Scheme) StorageBits(i int) bitsize.Bits {
	m := s.t.Len()
	idb := bitsize.IDBits(m)
	pb := bitsize.IDBits(s.t.Graph().Degree(s.t.Node(i)))
	b := 2*idb + pb                                             // own interval + parent port
	b += bitsize.Bits(len(s.locals[i].children)) * (2*idb + pb) // child entries
	b += s.lr.LocalBits(i)
	b += s.lr.Label(i).Bits() // node keeps its own label to hand to headers
	for range s.rendezvous[i] {
		b += bitsize.NameBits
	}
	for _, l := range s.rendezvous[i] {
		b += l.Bits()
	}
	return b
}

// --- routing step machine ---

type phase uint8

const (
	phaseToRendezvous phase = iota
	phaseToTarget
	phaseToSource
)

// Route is the header of one lookup in progress.
type Route struct {
	Target uint64
	phase  phase
	rvPre  int32           // rendezvous preorder number
	leg    treeroute.Label // in effect for phaseToTarget / phaseToSource
	ret    treeroute.Label // source's label (return address)
	// Outcome flags.
	Found    bool
	Negative bool
	// at is the tree index of the member the lookup is at. It is not
	// charged (see treeroute.Scheme.Step).
	at int32
}

// HeaderBits returns the accounting size of the header.
func (h *Route) HeaderBits() bitsize.Bits {
	return bitsize.NameBits + 8 + 32 + h.leg.Bits() + h.ret.Bits()
}

// Action tells the driving engine what a step decided.
type Action uint8

const (
	// Forward: cross the returned port.
	Forward Action = iota
	// Delivered: the current node is the destination.
	Delivered
	// ReportedNotFound: the lookup failed and has returned to the
	// source.
	ReportedNotFound
)

// NewRoute prepares a lookup for ext starting at src, which must be a
// member. The source's own label is the return address, and its tree
// index is the lookup's first position.
func (s *Scheme) NewRoute(ext uint64, src graph.NodeID) (*Route, error) {
	i, ok := s.t.Index(src)
	if !ok {
		return nil, fmt.Errorf("covroute: source %d is not a member", src)
	}
	return &Route{
		Target: ext,
		phase:  phaseToRendezvous,
		rvPre:  s.rendezvousPre(ext),
		ret:    s.lr.Label(i),
		at:     int32(i),
	}, nil
}

// Step advances the lookup at graph node x using only x's local state
// and the header. The header carries the lookup's position from hop to
// hop, so x's record is read by tree index; x must be the member the
// previous step forwarded to (the source on the first step), or Step
// errors.
func (s *Scheme) Step(x graph.NodeID, h *Route) (Action, int, error) {
	switch h.phase {
	case phaseToRendezvous:
		i := int(h.at)
		if i < 0 || i >= len(s.locals) || s.t.Node(i) != x {
			return 0, 0, fmt.Errorf("covroute: node %d is not the member at index %d", x, i)
		}
		lo := &s.locals[i]
		if h.rvPre == lo.pre {
			// At the rendezvous: resolve the name.
			if lbl, hit := s.rendezvous[i][h.Target]; hit {
				if s.t.Graph().Name(x) == h.Target {
					h.Found = true
					return Delivered, 0, nil
				}
				h.phase = phaseToTarget
				h.leg = lbl
				return s.Step(x, h)
			}
			h.phase = phaseToSource
			h.leg = h.ret
			return s.Step(x, h)
		}
		port, next, err := s.intervalStep(i, h.rvPre, x)
		if err != nil {
			return 0, 0, err
		}
		h.at = int32(next)
		return Forward, port, nil
	case phaseToTarget:
		arrived, port, next, err := s.lr.Step(x, int(h.at), h.leg)
		if err != nil {
			return 0, 0, err
		}
		if arrived {
			h.Found = true
			return Delivered, 0, nil
		}
		h.at = int32(next)
		return Forward, port, nil
	default: // phaseToSource
		arrived, port, next, err := s.lr.Step(x, int(h.at), h.leg)
		if err != nil {
			return 0, 0, err
		}
		if arrived {
			h.Negative = true
			return ReportedNotFound, 0, nil
		}
		h.at = int32(next)
		return Forward, port, nil
	}
}

// intervalStep picks the port at member i toward the member with
// preorder target, and the tree index of the member across it.
func (s *Scheme) intervalStep(i int, target int32, x graph.NodeID) (port, next int, err error) {
	lo := &s.locals[i]
	if target < lo.pre || target >= lo.post {
		if lo.parentPort < 0 {
			return 0, 0, fmt.Errorf("covroute: preorder %d outside tree at root %d", target, x)
		}
		return int(lo.parentPort), s.t.Parent(i), nil
	}
	// Binary search the child whose interval contains target. The
	// children intervals partition (pre, post).
	cs := lo.children
	idx := sort.Search(len(cs), func(j int) bool { return cs[j].post > target })
	if idx >= len(cs) || cs[idx].pre > target {
		return 0, 0, fmt.Errorf("covroute: interval gap for preorder %d at node %d", target, x)
	}
	return int(cs[idx].port), int(s.byPre[cs[idx].pre]), nil
}

// Run drives a full lookup for tests: it returns whether the name was
// found, the traversed node path, and the node where the route ended
// (the target on success, the source on failure).
func (s *Scheme) Run(ext uint64, src graph.NodeID) (found bool, path []graph.NodeID, err error) {
	h, err := s.NewRoute(ext, src)
	if err != nil {
		return false, nil, err
	}
	g := s.t.Graph()
	cur := src
	path = []graph.NodeID{cur}
	for steps := 0; ; steps++ {
		if steps > 8*s.t.Len() {
			return false, path, fmt.Errorf("covroute: lookup not terminating")
		}
		act, port, err := s.Step(cur, h)
		if err != nil {
			return false, path, err
		}
		switch act {
		case Delivered:
			return true, path, nil
		case ReportedNotFound:
			return false, path, nil
		case Forward:
			cur = g.EdgeAt(cur, port).To
			path = append(path, cur)
		}
	}
}
