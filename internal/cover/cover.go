// Package cover implements Lemma 6 of the paper: sparse tree covers
// TC_{k,ρ}(G) in the style of Awerbuch–Peleg sparse partitions [9]
// with the routing-oriented refinements of [3].
//
// Build produces a collection of rooted trees such that
//
//  1. (Cover)  every ball B(v,ρ) is fully contained in some tree,
//  2. (Sparse) each node belongs to few trees (O(k·n^{1/k});
//     measured and exposed via MaxMembership),
//  3. (Small radius) every tree has rad(T) ≤ (2k+1)·ρ,
//  4. (Small edges)  every tree edge weighs ≤ 2ρ.
//
// The construction is the classic coarsening procedure: repeatedly pick
// an uncovered ball and grow a cluster around it in layers, absorbing
// every still-uncovered ball that intersects the current kernel, until
// the cluster is no more than n^{1/k} times its kernel — which takes at
// most k layers, giving the radius bound. Cluster trees are shortest
// path trees from the seed center inside the cluster's induced
// subgraph restricted to edges of weight ≤ 2ρ; any two nodes of one
// merged ball connect through its center over such edges, so the
// restriction never disconnects a cluster (property 4 at no cost).
//
// The paper's [3]-refined constant is (2k−1)ρ; ours is (2k+1)ρ, a
// constant-factor difference absorbed by the O(k) stretch analysis
// (DESIGN.md substitution #4).
package cover

import (
	"fmt"
	"math"

	"compactroute/internal/graph"
	"compactroute/internal/sssp"
	"compactroute/internal/tree"
)

// Params configures a cover construction.
type Params struct {
	// K is the trade-off parameter (layers bound).
	K int
	// Rho is the covered ball radius ρ.
	Rho float64
	// UniverseN is the n in the n^{1/k} coarsening threshold; the
	// enclosing scheme passes the full graph size even when covering a
	// subgraph G_i. If zero, g.N() is used.
	UniverseN int
	// Member restricts the cover to the induced subgraph on the nodes
	// with Member[v] == true (the G_i of §3.4). The trees still live
	// in the original graph — same node ids and ports — so routing on
	// them crosses real edges. nil means all nodes.
	Member []bool
	// Metric optionally holds the caller's shortest paths over g, one
	// row per node (sssp.AllPairs output). When every node is a member,
	// B(v,ρ) is a prefix of row v's distance order and is read off it;
	// a cover of a strict subgraph measures its balls within G_i and
	// searches for them. Build only reads the rows.
	Metric []*sssp.Result
}

// Cover is a sparse tree cover of one graph (or of an induced
// subgraph, when built with a member filter).
type Cover struct {
	g      *graph.Graph
	rho    float64
	k      int
	member []bool
	Trees  []*tree.Tree
	// home[v] is the index of a tree guaranteed to contain B(v, ρ).
	home []int32
	// membership[v] lists the trees containing v.
	membership [][]int32
}

// Build constructs TC_{k,ρ}(g). The graph may be disconnected;
// clusters never span components.
func Build(g *graph.Graph, p Params) (*Cover, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("cover: k must be ≥ 1, got %d", p.K)
	}
	if p.Rho <= 0 || math.IsNaN(p.Rho) || math.IsInf(p.Rho, 0) {
		return nil, fmt.Errorf("cover: invalid ρ %v", p.Rho)
	}
	n := g.N()
	universe := p.UniverseN
	if universe < n {
		universe = n
	}
	member := p.Member
	if member == nil {
		member = make([]bool, n)
		for i := range member {
			member[i] = true
		}
	} else if len(member) != n {
		return nil, fmt.Errorf("cover: member filter has %d entries for %d nodes", len(member), n)
	}
	if p.Metric != nil && len(p.Metric) != n {
		return nil, fmt.Errorf("cover: metric has %d rows for %d nodes", len(p.Metric), n)
	}
	growth := math.Pow(float64(universe), 1/float64(p.K))

	// Precompute B(v,ρ) within the induced subgraph for every member.
	// Over the whole graph each ball is a prefix of the metric's row;
	// otherwise a truncated member-filtered Dijkstra finds it, and the
	// members fan out. Only each ball's set matters below (Y and Z are
	// marked, never walked in order), and the balls are only read, so
	// they may alias the rows.
	balls := make([][]graph.NodeID, n)
	if p.Metric != nil && allTrue(member) {
		for v, r := range p.Metric {
			balls[v] = r.Ball(p.Rho)
		}
	} else {
		sssp.ParallelFor(n, 0, func(v int) {
			if member[v] {
				balls[v] = filteredBall(g, graph.NodeID(v), member, p.Rho)
			}
		})
	}

	c := &Cover{
		g:          g,
		rho:        p.Rho,
		k:          p.K,
		member:     member,
		home:       make([]int32, n),
		membership: make([][]int32, n),
	}
	for i := range c.home {
		c.home[i] = -1
	}

	unprocessed := make([]bool, n)
	remaining := 0
	for i := range unprocessed {
		if member[i] {
			unprocessed[i] = true
			remaining++
		}
	}
	inY := make([]bool, n) // kernel membership scratch
	inZ := make([]bool, n) // cluster membership scratch

	for remaining > 0 {
		// Deterministically pick the smallest unprocessed center.
		seed := -1
		for v := 0; v < n; v++ {
			if unprocessed[v] {
				seed = v
				break
			}
		}
		// Grow the cluster in layers.
		var yNodes, zNodes []graph.NodeID
		var absorbed []int // ball centers merged into this cluster
		for _, u := range balls[seed] {
			if !inY[u] {
				inY[u] = true
				yNodes = append(yNodes, u)
			}
		}
		for layer := 0; ; layer++ {
			// S: unprocessed balls intersecting the kernel Y.
			absorbed = absorbed[:0]
			zNodes = zNodes[:0]
			for i := range inZ {
				inZ[i] = false
			}
			for _, y := range yNodes {
				if !inZ[y] {
					inZ[y] = true
					zNodes = append(zNodes, y)
				}
			}
			for u := 0; u < n; u++ {
				if !unprocessed[u] {
					continue
				}
				hit := false
				for _, w := range balls[u] {
					if inY[w] {
						hit = true
						break
					}
				}
				if !hit {
					continue
				}
				absorbed = append(absorbed, u)
				for _, w := range balls[u] {
					if !inZ[w] {
						inZ[w] = true
						zNodes = append(zNodes, w)
					}
				}
			}
			if float64(len(zNodes)) <= growth*float64(len(yNodes)) || layer >= p.K {
				break
			}
			// Coarsen: kernel becomes the current cluster.
			yNodes = yNodes[:0]
			for _, w := range zNodes {
				yNodes = append(yNodes, w)
			}
			for i := range inY {
				inY[i] = false
			}
			for _, w := range yNodes {
				inY[w] = true
			}
		}
		// Freeze the cluster: build its tree and retire absorbed balls.
		t, err := clusterTree(g, graph.NodeID(seed), inZ, 2*p.Rho)
		if err != nil {
			return nil, err
		}
		ti := int32(len(c.Trees))
		c.Trees = append(c.Trees, t)
		for _, u := range absorbed {
			unprocessed[u] = false
			remaining--
			if c.home[u] < 0 {
				c.home[u] = ti
			}
		}
		for i := range inY {
			inY[i] = false
		}
	}
	for ti, t := range c.Trees {
		for i := 0; i < t.Len(); i++ {
			v := t.Node(i)
			c.membership[v] = append(c.membership[v], int32(ti))
		}
	}
	return c, nil
}

// allTrue reports whether the filter admits every node.
func allTrue(member []bool) bool {
	for _, in := range member {
		if !in {
			return false
		}
	}
	return true
}

// filteredBall returns B(v,ρ) in the subgraph induced by member, via
// truncated Dijkstra.
func filteredBall(g *graph.Graph, src graph.NodeID, member []bool, rho float64) []graph.NodeID {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := newLocalHeap(n)
	h.push(src, 0)
	var ball []graph.NodeID
	for h.len() > 0 {
		u, du := h.pop()
		if du > rho {
			break
		}
		ball = append(ball, u)
		g.Neighbors(u, func(e graph.Edge) bool {
			if !member[e.To] {
				return true
			}
			if alt := du + e.Weight; alt < dist[e.To] && alt <= rho {
				dist[e.To] = alt
				h.pushOrDecrease(e.To, alt)
			}
			return true
		})
	}
	return ball
}

// clusterTree builds the SPT from center over cluster members using
// only edges of weight ≤ maxEdge.
func clusterTree(g *graph.Graph, center graph.NodeID, member []bool, maxEdge float64) (*tree.Tree, error) {
	// Dijkstra restricted to the cluster and light edges.
	n := g.N()
	dist := make([]float64, n)
	parent := make([]graph.NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[center] = 0
	h := newLocalHeap(n)
	h.push(center, 0)
	for h.len() > 0 {
		u, du := h.pop()
		g.Neighbors(u, func(e graph.Edge) bool {
			if !member[e.To] || e.Weight > maxEdge {
				return true
			}
			if alt := du + e.Weight; alt < dist[e.To] {
				dist[e.To] = alt
				parent[e.To] = u
				h.pushOrDecrease(e.To, alt)
			}
			return true
		})
	}
	for v := 0; v < n; v++ {
		if member[v] && graph.NodeID(v) != center && parent[v] < 0 {
			return nil, fmt.Errorf("cover: cluster member %d unreachable over light edges", v)
		}
	}
	// Only members are ever relaxed, so the reached nodes are exactly
	// the cluster.
	return tree.FromSPT(g, center, parent)
}

// Rho returns the covered radius ρ.
func (c *Cover) Rho() float64 { return c.rho }

// K returns the parameter k.
func (c *Cover) K() int { return c.k }

// Home returns the index of a tree containing B(v, ρ).
func (c *Cover) Home(v graph.NodeID) int { return int(c.home[v]) }

// TreesOf returns the indices of the trees containing v (do not
// mutate).
func (c *Cover) TreesOf(v graph.NodeID) []int32 { return c.membership[v] }

// MaxMembership returns the largest number of trees any node belongs
// to — the "sparse" quantity of Lemma 6.
func (c *Cover) MaxMembership() int {
	max := 0
	for _, m := range c.membership {
		if len(m) > max {
			max = len(m)
		}
	}
	return max
}

// MaxRadius returns the largest tree radius.
func (c *Cover) MaxRadius() float64 {
	max := 0.0
	for _, t := range c.Trees {
		if r := t.Radius(); r > max {
			max = r
		}
	}
	return max
}

// MaxEdge returns the heaviest edge used by any tree.
func (c *Cover) MaxEdge() float64 {
	max := 0.0
	for _, t := range c.Trees {
		if e := t.MaxEdge(); e > max {
			max = e
		}
	}
	return max
}

// Validate rechecks all four Lemma 6 properties; used by tests and the
// T5 experiment. sparsityBound is the asserted per-node membership
// limit (pass 2k·n^{1/k} for the paper's bound).
func (c *Cover) Validate(sparsityBound int) error {
	g := c.g
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if !c.member[v] {
			if len(c.TreesOf(v)) != 0 || c.Home(v) >= 0 {
				return fmt.Errorf("cover: non-member %d appears in cover", v)
			}
			continue
		}
		hi := c.Home(v)
		if hi < 0 || hi >= len(c.Trees) {
			return fmt.Errorf("cover: node %d has no home tree", v)
		}
		home := c.Trees[hi]
		for _, w := range filteredBall(g, v, c.member, c.rho) {
			if !home.Contains(w) {
				return fmt.Errorf("cover: B(%d,ρ) escapes its home tree at %d", v, w)
			}
		}
		if len(c.TreesOf(v)) > sparsityBound {
			return fmt.Errorf("cover: node %d in %d > %d trees", v, len(c.TreesOf(v)), sparsityBound)
		}
	}
	radBound := float64(2*c.k+1)*c.rho + 1e-9
	for i, t := range c.Trees {
		if t.Radius() > radBound {
			return fmt.Errorf("cover: tree %d radius %v > (2k+1)ρ = %v", i, t.Radius(), radBound)
		}
		if t.MaxEdge() > 2*c.rho+1e-9 {
			return fmt.Errorf("cover: tree %d edge %v > 2ρ", i, t.MaxEdge())
		}
		if err := t.Validate(); err != nil {
			return fmt.Errorf("cover: tree %d: %w", i, err)
		}
	}
	return nil
}

// --- small local heap (ids keyed by float64, decrease-key) ---

type localHeap struct {
	keys []float64
	heap []graph.NodeID
	pos  []int32
}

func newLocalHeap(n int) *localHeap {
	h := &localHeap{keys: make([]float64, n), pos: make([]int32, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *localHeap) len() int { return len(h.heap) }

func (h *localHeap) push(u graph.NodeID, key float64) {
	h.keys[u] = key
	h.pos[u] = int32(len(h.heap))
	h.heap = append(h.heap, u)
	h.up(len(h.heap) - 1)
}

func (h *localHeap) pushOrDecrease(u graph.NodeID, key float64) {
	if h.pos[u] < 0 {
		h.push(u, key)
		return
	}
	if key < h.keys[u] {
		h.keys[u] = key
		h.up(int(h.pos[u]))
	}
}

func (h *localHeap) pop() (graph.NodeID, float64) {
	u := h.heap[0]
	key := h.keys[u]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[u] = -1
	if last > 0 {
		h.down(0)
	}
	return u, key
}

func (h *localHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *localHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.keys[h.heap[i]] >= h.keys[h.heap[p]] {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *localHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && h.keys[h.heap[l]] < h.keys[h.heap[s]] {
			s = l
		}
		if r < n && h.keys[h.heap[r]] < h.keys[h.heap[s]] {
			s = r
		}
		if s == i {
			return
		}
		h.swap(i, s)
		i = s
	}
}
