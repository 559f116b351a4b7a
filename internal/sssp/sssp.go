// Package sssp implements single-source shortest paths and the ordered
// neighborhood operators of §2.1: the metric d(u,v), the balls
// B(u,r) = {v | d(u,v) ≤ r}, and N(u,m,Z) — the m closest nodes of Z to
// u with ties broken by lexicographic (name) order. These operators are
// the vocabulary every construction in the paper is written in. Every
// row comes from one Dijkstra kernel, From, over an indexed 4-ary heap.
package sssp

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"compactroute/internal/graph"
)

// Result holds a shortest path tree from one source.
type Result struct {
	Source graph.NodeID
	// Dist[v] is d(source, v); +Inf if unreached.
	Dist []float64
	// Parent[v] is v's parent in the shortest path tree (-1 for the
	// source and unreached nodes).
	Parent []graph.NodeID
	// ParentPort[v] is the port at v crossing to Parent[v] (-1 when no
	// parent), so a message at v can step toward the source.
	ParentPort []int32
	// Order lists the reached nodes in nondecreasing distance, with
	// exact ties broken by ascending external name: precisely the
	// enumeration order the paper's N(u,m,Z) operator requires.
	Order []graph.NodeID

	g *graph.Graph
}

// From computes shortest paths in g from src using Dijkstra's algorithm
// with an indexed 4-ary heap. Runs in O((n + m) log n).
//
// The heap pops in (distance, id) order and relaxes each popped node's
// edges in port order, so every field is fixed by the order of strict
// improvements alone: any indexed heap with that total order fills the
// row identically.
func From(g *graph.Graph, src graph.NodeID) *Result {
	n := g.N()
	res := &Result{
		Source:     src,
		Dist:       make([]float64, n),
		Parent:     make([]graph.NodeID, n),
		ParentPort: make([]int32, n),
		Order:      make([]graph.NodeID, 0, n),
		g:          g,
	}
	dist, parent, parentPort := res.Dist, res.Parent, res.ParentPort
	for i := 0; i < n; i++ {
		dist[i] = math.Inf(1)
		parent[i] = -1
		parentPort[i] = -1
	}
	dist[src] = 0
	h := getHeap(n)
	h.Push(src, 0)
	for h.Len() > 0 {
		u, du := h.PopMin()
		res.Order = append(res.Order, u)
		to, w, rev := g.Adjacency(u)
		w, rev = w[:len(to)], rev[:len(to)] // lets w[p] and rev[p] skip bounds checks
		for p, v := range to {
			alt := du + w[p]
			if alt < dist[v] {
				dist[v] = alt
				parent[v] = u
				parentPort[v] = rev[p]
				if h.Contains(v) {
					h.DecreaseKey(v, alt)
				} else {
					h.Push(v, alt)
				}
			}
		}
	}
	heapPool.Put(h)
	sortTiesByName(g, res.Order, dist)
	return res
}

// sortTiesByName turns Dijkstra's pop order into the paper's
// enumeration order. Weights are positive, so pops come in
// nondecreasing distance and only runs of equal distance, which pop in
// id order, are out of (distance, name) order; each run is sorted by
// name, which is unique.
func sortTiesByName(g *graph.Graph, order []graph.NodeID, dist []float64) {
	for lo := 0; lo < len(order); {
		d := dist[order[lo]]
		hi := lo + 1
		for hi < len(order) && dist[order[hi]] == d {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], func(a, b graph.NodeID) int {
				return cmp.Compare(g.Name(a), g.Name(b))
			})
		}
		lo = hi
	}
}

// Reached reports whether v is reachable from the source.
func (r *Result) Reached(v graph.NodeID) bool { return !math.IsInf(r.Dist[v], 1) }

// PathTo returns the shortest path source→v as a node sequence, or nil
// if v is unreachable.
func (r *Result) PathTo(v graph.NodeID) []graph.NodeID {
	var rev []graph.NodeID
	for u := v; u != -1; u = r.Parent[u] {
		rev = append(rev, u)
	}
	if len(rev) == 0 || rev[len(rev)-1] != r.Source {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Ball returns B(source, radius): every node within the given distance,
// in the canonical (distance, name) order.
func (r *Result) Ball(radius float64) []graph.NodeID {
	// Order is sorted by distance, so the ball is a prefix.
	hi := sort.Search(len(r.Order), func(i int) bool {
		return r.Dist[r.Order[i]] > radius
	})
	return r.Order[:hi]
}

// BallSize returns |B(source, radius)| without materializing the ball.
func (r *Result) BallSize(radius float64) int {
	return sort.Search(len(r.Order), func(i int) bool {
		return r.Dist[r.Order[i]] > radius
	})
}

// Closest implements N(u, m, Z) from §2.1: the m closest members of Z
// to the source, ties broken by ascending name. Z is given as a
// membership predicate; if fewer than m members are reachable, all of
// them are returned.
func (r *Result) Closest(m int, inZ func(graph.NodeID) bool) []graph.NodeID {
	if m <= 0 {
		return nil
	}
	out := make([]graph.NodeID, 0, m)
	for _, v := range r.Order {
		if inZ(v) {
			out = append(out, v)
			if len(out) == m {
				break
			}
		}
	}
	return out
}

// Radius returns the distance to the farthest reached node
// (the eccentricity of the source within its component).
func (r *Result) Radius() float64 {
	if len(r.Order) == 0 {
		return 0
	}
	return r.Dist[r.Order[len(r.Order)-1]]
}

// AllPairs runs From for every node. It is Θ(n·(n+m) log n) and meant
// for verification and baselines, not for scheme construction.
func AllPairs(g *graph.Graph) []*Result {
	out := make([]*Result, g.N())
	for u := 0; u < g.N(); u++ {
		out[u] = From(g, graph.NodeID(u))
	}
	return out
}

// BellmanFord computes shortest path distances from src by iterated
// relaxation. It is O(n·m) and exists to cross-check Dijkstra in tests.
func BellmanFord(g *graph.Graph, src graph.NodeID) []float64 {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := graph.NodeID(0); int(u) < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			du := dist[u]
			g.Neighbors(u, func(e graph.Edge) bool {
				if du+e.Weight < dist[e.To] {
					dist[e.To] = du + e.Weight
					changed = true
				}
				return true
			})
		}
		if !changed {
			break
		}
	}
	return dist
}

// Diameter returns max_u ecc(u) and the aspect ratio Δ =
// (max distance)/(min distance) over a full APSP sweep.
func Diameter(g *graph.Graph) (diam, aspect float64) {
	minD := math.Inf(1)
	for u := 0; u < g.N(); u++ {
		r := From(g, graph.NodeID(u))
		for _, v := range r.Order {
			if v == r.Source {
				continue
			}
			d := r.Dist[v]
			if d > diam {
				diam = d
			}
			if d < minD {
				minD = d
			}
		}
	}
	if minD == 0 || math.IsInf(minD, 1) {
		return diam, 1
	}
	return diam, diam / minD
}
