// Package graph implements the weighted undirected network model of
// §2.1 of the paper: a graph G = (V, E, ω) with a non-negative weight
// function, n arbitrary node names, and shortest-path metric d(u,v).
//
// Internally nodes are dense indices in [0, n); externally every node
// carries an arbitrary uint64 name. The separation is load-bearing: the
// paper's model is *name-independent* routing, so routing schemes must
// never derive information from a name except through hashing, while
// the construction algorithms are free to use indices. Edges incident
// to a node are numbered by "ports" 0..deg(u)-1, the local handles a
// router uses to forward a message.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// NodeID is a dense internal node index in [0, n).
type NodeID int32

// Edge is one endpoint's view of an incident edge.
type Edge struct {
	To     NodeID
	Weight float64
	Port   int // index of this edge in From's incidence list
}

// Graph is an immutable weighted undirected graph in CSR layout.
// Build one with a Builder.
type Graph struct {
	names   []uint64          // index -> name
	byName  map[uint64]NodeID // name -> index
	labels  map[string]NodeID // optional string labels (see labels.go)
	labelOf map[NodeID]string
	offsets []int32   // CSR offsets, len n+1
	targets []NodeID  // CSR neighbor ids
	weights []float64 // CSR edge weights
	// revPort[i] is the port of edge i as seen from its target, so a
	// router can compute the reverse port of the edge it arrived on.
	revPort []int32
	m       int // number of undirected edges
}

// Builder accumulates nodes and edges before freezing into a Graph.
type Builder struct {
	names   []uint64
	byName  map[uint64]NodeID
	labels  map[string]NodeID
	labelOf map[NodeID]string
	us      []NodeID
	vs      []NodeID
	ws      []float64
}

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder {
	return &Builder{byName: make(map[uint64]NodeID)}
}

// AddNode registers a node with the given external name and returns its
// internal id. Adding the same name twice returns the existing id.
func (b *Builder) AddNode(name uint64) NodeID {
	if id, ok := b.byName[name]; ok {
		return id
	}
	id := NodeID(len(b.names))
	b.names = append(b.names, name)
	b.byName[name] = id
	return id
}

// AddEdge adds an undirected edge between the nodes with internal ids u
// and v. Self-loops are rejected; parallel edges are allowed (the
// metric only ever uses the lightest path).
func (b *Builder) AddEdge(u, v NodeID, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	if int(u) >= len(b.names) || int(v) >= len(b.names) || u < 0 || v < 0 {
		return fmt.Errorf("graph: edge (%d,%d) references unknown node", u, v)
	}
	if !validWeight(w) {
		return fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, v, w)
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
	return nil
}

// validWeight reports whether w can weigh an edge: positive and
// finite. Shortest-path searches rely on it; a negative weight sends
// Dijkstra round a cycle forever.
func validWeight(w float64) bool { return w > 0 && !math.IsInf(w, 0) }

// ErrEmpty is returned when building a graph with no nodes.
var ErrEmpty = errors.New("graph: no nodes")

// Build freezes the builder into an immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.names)
	if n == 0 {
		return nil, ErrEmpty
	}
	g := &Graph{
		names:  append([]uint64(nil), b.names...),
		byName: make(map[uint64]NodeID, n),
		m:      len(b.us),
	}
	for id, name := range g.names {
		g.byName[name] = NodeID(id)
	}
	b.buildLabels(g)
	deg := make([]int32, n)
	for i := range b.us {
		deg[b.us[i]]++
		deg[b.vs[i]]++
	}
	g.offsets = make([]int32, n+1)
	for i := 0; i < n; i++ {
		g.offsets[i+1] = g.offsets[i] + deg[i]
	}
	total := g.offsets[n]
	g.targets = make([]NodeID, total)
	g.weights = make([]float64, total)
	g.revPort = make([]int32, total)
	next := make([]int32, n)
	copy(next, g.offsets[:n])
	for i := range b.us {
		u, v, w := b.us[i], b.vs[i], b.ws[i]
		pu := next[u]
		next[u]++
		pv := next[v]
		next[v]++
		g.targets[pu], g.weights[pu] = v, w
		g.targets[pv], g.weights[pv] = u, w
		g.revPort[pu] = pv - g.offsets[v]
		g.revPort[pv] = pu - g.offsets[u]
	}
	return g, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.names) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Name returns the external name of node u.
func (g *Graph) Name(u NodeID) uint64 { return g.names[u] }

// Lookup resolves an external name to an internal id.
func (g *Graph) Lookup(name uint64) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// Degree returns the number of incident edge endpoints at u.
func (g *Graph) Degree(u NodeID) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors calls fn for every incident edge of u in port order,
// stopping early if fn returns false.
func (g *Graph) Neighbors(u NodeID, fn func(e Edge) bool) {
	for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
		if !fn(Edge{To: g.targets[i], Weight: g.weights[i], Port: int(i - g.offsets[u])}) {
			return
		}
	}
}

// Adjacency returns u's incident edges in port order as parallel
// slices: port p leads to to[p] over an edge of weight w[p], and rev[p]
// is ReversePort(u, p). It is Neighbors for loops that read every edge
// of many nodes; the slices alias the graph and must not be mutated.
func (g *Graph) Adjacency(u NodeID) (to []NodeID, w []float64, rev []int32) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	return g.targets[lo:hi:hi], g.weights[lo:hi:hi], g.revPort[lo:hi:hi]
}

// ForEachEdge calls fn once per undirected edge in canonical order —
// ascending u, then port order, each edge visited from its
// lower-numbered endpoint — stopping early if fn returns false. The
// order is the one gio.Write emits and the dynamic replay preserves,
// so two graphs with identical CSR layouts enumerate identically.
func (g *Graph) ForEachEdge(fn func(u, v NodeID, w float64) bool) {
	for u := NodeID(0); int(u) < g.N(); u++ {
		for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
			if u < g.targets[i] && !fn(u, g.targets[i], g.weights[i]) {
				return
			}
		}
	}
}

// PortTo returns some port of u leading to v over the lightest parallel
// edge, or -1 if u and v are not adjacent.
func (g *Graph) PortTo(u, v NodeID) int {
	best, bestW := -1, math.Inf(1)
	for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
		if g.targets[i] == v && g.weights[i] < bestW {
			best, bestW = int(i-g.offsets[u]), g.weights[i]
		}
	}
	return best
}

// EdgeAt resolves port p of node u.
func (g *Graph) EdgeAt(u NodeID, p int) Edge {
	i := g.offsets[u] + int32(p)
	if p < 0 || i >= g.offsets[u+1] {
		panic(fmt.Sprintf("graph: node %d has no port %d", u, p))
	}
	return Edge{To: g.targets[i], Weight: g.weights[i], Port: p}
}

// ReversePort returns the port at the far end of port p of u, i.e. the
// port that leads back across the same physical edge.
func (g *Graph) ReversePort(u NodeID, p int) int {
	i := g.offsets[u] + int32(p)
	if p < 0 || i >= g.offsets[u+1] {
		panic(fmt.Sprintf("graph: node %d has no port %d", u, p))
	}
	return int(g.revPort[i])
}

// Adjacent reports whether u and v share an edge.
func (g *Graph) Adjacent(u, v NodeID) bool { return g.PortTo(u, v) >= 0 }

// MinEdgeWeight returns the smallest edge weight, which for a connected
// graph equals min_{u≠v} d(u,v), the paper's normalization unit.
func (g *Graph) MinEdgeWeight() float64 {
	min := math.Inf(1)
	for _, w := range g.weights {
		if w < min {
			min = w
		}
	}
	return min
}

// MaxEdgeWeight returns the largest edge weight.
func (g *Graph) MaxEdgeWeight() float64 {
	max := 0.0
	for _, w := range g.weights {
		if w > max {
			max = w
		}
	}
	return max
}

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return false
	}
	seen := make([]bool, g.N())
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.Neighbors(u, func(e Edge) bool {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
			return true
		})
	}
	return count == g.N()
}

// Components returns the connected components as sorted id slices.
func (g *Graph) Components() [][]NodeID {
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]NodeID
	for s := NodeID(0); int(s) < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		c := len(comps)
		var members []NodeID
		stack := []NodeID{s}
		comp[s] = c
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, u)
			g.Neighbors(u, func(e Edge) bool {
				if comp[e.To] < 0 {
					comp[e.To] = c
					stack = append(stack, e.To)
				}
				return true
			})
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		comps = append(comps, members)
	}
	return comps
}

// InducedSubgraph returns the subgraph induced by the given node set,
// along with the mapping from subgraph ids to original ids. Node names
// are preserved so name-hashing behaves identically in the subgraph.
func (g *Graph) InducedSubgraph(nodes []NodeID) (*Graph, []NodeID, error) {
	inSet := make(map[NodeID]NodeID, len(nodes))
	b := NewBuilder()
	orig := make([]NodeID, 0, len(nodes))
	for _, u := range nodes {
		if _, dup := inSet[u]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate node %d in induced set", u)
		}
		inSet[u] = b.AddNode(g.Name(u))
		orig = append(orig, u)
	}
	for _, u := range nodes {
		su := inSet[u]
		var err error
		g.Neighbors(u, func(e Edge) bool {
			sv, ok := inSet[e.To]
			if ok && u < e.To { // add each undirected edge once
				err = b.AddEdge(su, sv, e.Weight)
			}
			return err == nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	sg, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sg, orig, nil
}
