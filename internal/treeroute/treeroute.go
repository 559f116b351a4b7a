// Package treeroute implements Lemma 5 of the paper: labeled routing
// on a weighted tree that, given any destination label, routes along
// the unique tree path (stretch 1 on the tree).
//
// The construction is the heavy-path variant of Thorup–Zwick [29] /
// Fraigniaud–Gavoille [15] tree routing. Every member stores O(1)
// words: its DFS interval, its parent port, and its heavy child's
// interval and port. A destination label carries the destination's
// preorder number plus one (preorder, port) pair per *light* edge on
// its root path — at most ⌊log₂ m⌋ pairs, since each light edge at
// least halves the subtree size. A node routing a message either moves
// up (target outside its interval), into its heavy child (target inside
// the heavy interval), or across the light port the label dictates.
//
// This sits at the k = O(log n) point of the lemma's storage/label
// trade-off: O(log n)-word tables and labels, i.e. O(log² n) bits, the
// Õ(1) regime every consumer in the paper needs.
//
// A walk carries its position: Step takes the tree index of the member
// it runs at and returns the index of the member across the chosen
// port, so each hop reads x's record by index instead of hashing x into
// the tree's member map. The index is not charged in label or header
// bits: given the tree, it is a function of x (see Step).
package treeroute

import (
	"fmt"

	"compactroute/internal/bitsize"
	"compactroute/internal/graph"
	"compactroute/internal/tree"
)

// LightHop records the port to take at the node with the given
// preorder number when descending across a light edge.
type LightHop struct {
	ParentPre int32 // preorder number of the branching node
	Port      int32 // graph port at that node toward the path child
}

// Label is the routing label λ(T,v) of a tree member.
type Label struct {
	Pre   int32 // destination's preorder number
	Light []LightHop
}

// Bits returns the accounting size of the label: each preorder number
// or port costs ⌈log₂ m⌉-ish bits; we charge 32 per field, matching
// the encoding a wire format would use at these scales.
func (l Label) Bits() bitsize.Bits {
	return bitsize.Bits(32 + 64*len(l.Light))
}

// local is µ(T,u): everything a member stores for labeled routing.
type local struct {
	pre, post  int32
	parentPort int32 // graph port to tree parent (-1 at root)
	heavyPre   int32 // heavy child's interval, [-1,-1) if leaf
	heavyPost  int32
	heavyPort  int32 // graph port into the heavy child
}

// Scheme holds the labeled tree routing structures for one tree.
type Scheme struct {
	t      *tree.Tree
	locals []local
	// Every member's light hops, back to back: member i's label carries
	// light[lightOff[i]:lightOff[i+1]], root-side hop first.
	light    []LightHop
	lightOff []int32
}

// New builds the Lemma 5 structures for every member of t.
func New(t *tree.Tree) *Scheme {
	n := t.Len()
	s := &Scheme{t: t, locals: make([]local, n)}
	for i := 0; i < n; i++ {
		lo := local{
			pre:        int32(t.Pre(i)),
			post:       int32(t.Post(i)),
			parentPort: int32(t.ParentPort(i)),
			heavyPre:   -1,
			heavyPost:  -1,
			heavyPort:  -1,
		}
		if h := t.Heavy(i); h >= 0 {
			lo.heavyPre = int32(t.Pre(h))
			lo.heavyPost = int32(t.Post(h))
			lo.heavyPort = int32(t.ChildPort(h))
		}
		s.locals[i] = lo
	}
	// A member's light hops are its parent's plus, if it is a light
	// child, the hop into it. Tree indices list parents before
	// children, so one pass counts the hops (lightOff[i+1] holds member
	// i's count until the prefix sum) and a second fills the runs.
	s.lightOff = make([]int32, n+1)
	for i := 1; i < n; i++ {
		s.lightOff[i+1] = s.lightOff[t.Parent(i)+1] + s.lightEdge(i)
	}
	for i := 1; i <= n; i++ {
		s.lightOff[i] += s.lightOff[i-1]
	}
	s.light = make([]LightHop, s.lightOff[n])
	for i := 1; i < n; i++ {
		p := t.Parent(i)
		run := s.light[s.lightOff[i]:s.lightOff[i+1]]
		copy(run, s.light[s.lightOff[p]:s.lightOff[p+1]])
		if s.lightEdge(i) == 1 {
			run[len(run)-1] = LightHop{ParentPre: int32(t.Pre(p)), Port: int32(t.ChildPort(i))}
		}
	}
	return s
}

// lightEdge is 1 if member i hangs off its parent by a light edge.
func (s *Scheme) lightEdge(i int) int32 {
	if s.t.Heavy(s.t.Parent(i)) == i {
		return 0
	}
	return 1
}

// Tree returns the underlying tree.
func (s *Scheme) Tree() *tree.Tree { return s.t }

// Label returns λ(T, member i). Its light hops are capped at their
// own run, so an append by the caller copies rather than overwriting
// the next member's hops.
func (s *Scheme) Label(i int) Label {
	lo, hi := s.lightOff[i], s.lightOff[i+1]
	return Label{Pre: s.locals[i].pre, Light: s.light[lo:hi:hi]}
}

// LabelOf returns the label of a graph node, which must be a member.
func (s *Scheme) LabelOf(v graph.NodeID) (Label, bool) {
	i, ok := s.t.Index(v)
	if !ok {
		return Label{}, false
	}
	return s.Label(i), true
}

// LocalBits returns the accounting size of µ(T, member i): seven
// bounded integers.
func (s *Scheme) LocalBits(i int) bitsize.Bits {
	m := s.t.Len()
	idb := bitsize.IDBits(m)
	g := s.t.Graph()
	pb := bitsize.IDBits(g.Degree(s.t.Node(i)))
	return 4*idb + 3*pb
}

// MaxLightHops returns the largest light-hop count over all labels;
// the heavy-path argument bounds it by ⌊log₂ m⌋.
func (s *Scheme) MaxLightHops() int {
	max := int32(0)
	for i := 1; i < len(s.lightOff); i++ {
		if h := s.lightOff[i] - s.lightOff[i-1]; h > max {
			max = h
		}
	}
	return int(max)
}

// Step makes one routing decision at graph node x, the member at tree
// index at, for a message headed to lbl. It returns (arrived=true)
// when x is the destination, else the graph port to forward on and
// next, the tree index of the member across that port, which the
// caller passes as at on the following step (next is at on arrival).
// Step consults only x's local record and the label, preserving the
// distributed-routing discipline.
//
// The position is how the walk finds x's record: a real node holds
// its record, and a simulated one is found in the member arrays. It is
// not charged in Label.Bits or in any header: given the tree, which
// the header already names, it is a function of x and carries no
// information. Step still checks that at names x, an array read that
// stands in for the membership test, so a wrong position errors
// rather than routing on a neighbour's record.
func (s *Scheme) Step(x graph.NodeID, at int, lbl Label) (arrived bool, port, next int, err error) {
	if at < 0 || at >= len(s.locals) || s.t.Node(at) != x {
		return false, 0, 0, fmt.Errorf("treeroute: node %d is not the member at index %d", x, at)
	}
	lo := &s.locals[at]
	switch {
	case lbl.Pre == lo.pre:
		return true, 0, at, nil
	case lbl.Pre < lo.pre || lbl.Pre >= lo.post:
		// Destination outside our subtree: go up.
		if lo.parentPort < 0 {
			return false, 0, 0, fmt.Errorf("treeroute: label %d not in tree rooted at %d", lbl.Pre, x)
		}
		return false, int(lo.parentPort), s.t.Parent(at), nil
	case lo.heavyPre >= 0 && lbl.Pre >= lo.heavyPre && lbl.Pre < lo.heavyPost:
		return false, int(lo.heavyPort), s.t.Heavy(at), nil
	default:
		// Must be a light decision recorded in the label.
		for _, lh := range lbl.Light {
			if lh.ParentPre != lo.pre {
				continue
			}
			for _, c := range s.t.Children(at) {
				if s.t.ChildPort(int(c)) == int(lh.Port) {
					return false, int(lh.Port), int(c), nil
				}
			}
			return false, 0, 0, fmt.Errorf("treeroute: light port %d at node %d leads to no child", lh.Port, x)
		}
		return false, 0, 0, fmt.Errorf("treeroute: label has no light hop at node %d (pre %d)", x, lo.pre)
	}
}

// Route walks the full tree path from src to the label's destination,
// returning the node sequence (for tests; the simulator drives Step
// directly). The cost of the returned path is the tree distance.
func (s *Scheme) Route(src graph.NodeID, lbl Label) ([]graph.NodeID, error) {
	at, ok := s.t.Index(src)
	if !ok {
		return nil, fmt.Errorf("treeroute: node %d is not a member", src)
	}
	g := s.t.Graph()
	cur := src
	path := []graph.NodeID{cur}
	for hop := 0; ; hop++ {
		if hop > 2*s.t.Len() {
			return nil, fmt.Errorf("treeroute: routing loop from %d", src)
		}
		done, port, next, err := s.Step(cur, at, lbl)
		if err != nil {
			return nil, err
		}
		if done {
			return path, nil
		}
		cur, at = g.EdgeAt(cur, port).To, next
		path = append(path, cur)
	}
}
