// Package tree implements rooted weighted trees embedded in a graph.
//
// Every routing structure in the paper lives on such trees: the
// minimum-cost path trees T(u) of §2.1, the landmark trees T(c(u,i)) of
// §3.1, and the cover trees of Lemma 6. A Tree remembers, for every
// member, the *graph ports* crossing each tree edge, so the routing
// simulators can forward messages over real edges, plus the geometric
// data the lemmas reason about (weighted depth, radius, heaviest edge)
// and the combinatorial data the routing schemes need (DFS intervals,
// heavy children, members ordered by root distance).
//
// Every tree comes from one constructor over a parent array indexed by
// graph id and an ascending member list (FromSPT, FromPaths,
// FromSnapshot), so one parent relation always freezes into the same
// tree: BFS indices with siblings in ascending id, the lightest edge
// between each parent and child.
package tree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"compactroute/internal/graph"
	"compactroute/internal/sssp"
)

// Tree is an immutable rooted tree over a subset of a graph's nodes.
// Tree indices are dense ints in [0, Len()); index 0 is the root.
type Tree struct {
	g          *graph.Graph
	nodes      []graph.NodeID // tree index -> graph id
	idx        map[graph.NodeID]int32
	parent     []int32   // tree index -> parent tree index (-1 for root)
	parentPort []int32   // graph port at node crossing to its parent
	childPort  []int32   // graph port at parent crossing to this node
	edgeW      []float64 // weight of the edge to the parent
	depth      []float64 // weighted distance from the root along the tree
	// Children as CSR: i's children are childList[childOff[i]:childOff[i+1]].
	childOff  []int32
	childList []int32
	size      []int32 // subtree sizes
	pre       []int32 // DFS preorder number
	post      []int32 // one past the largest preorder in the subtree
	heavy     []int32 // child with the largest subtree (-1 for leaves)
	byDepth   []int32 // tree indices sorted by (depth, name)
}

// scratch is the working memory of one tree construction. It is
// pooled instead of allocated per tree: a scheme build freezes a tree
// for every landmark, and working arrays of a tree's own size, freed
// among the arrays the tree keeps, would scatter those over more memory
// pages, which every walk over the built scheme then pays for.
type scratch struct {
	mark   []int32        // per graph id; all zero between constructions
	parent []graph.NodeID // per graph id: FromSnapshot's parent relation
	ids    []graph.NodeID // the member list
	kids   []graph.NodeID // the members grouped by parent
	offs   []int32        // per-parent child offsets, then fill cursors
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a pooled scratch covering graph ids below n.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.mark) < n {
		sc.mark = make([]int32, n)
	}
	return sc
}

// fromParents is the one constructor every tree comes from. members
// lists every member but the root, in ascending graph id, and parent
// maps each of them (indexed by graph id) to its parent's graph id,
// which must be the root or another member. Nodes are indexed in BFS
// order from the root with siblings in ascending id, and each tree edge
// is the lightest edge between its ends, so one parent relation always
// freezes into one tree. order, when not nil, lists every member (and
// possibly other nodes) by (depth, name), and the by-depth order is
// read off it instead of sorted.
func fromParents(sc *scratch, g *graph.Graph, root graph.NodeID, parent, members, order []graph.NodeID) (*Tree, error) {
	m := len(members)
	n := m + 1
	// slot[v] is 1 + v's position in members (m+1 for the root, 0 for a
	// non-member); kids[start[q]:start[q+1]] are the children of the
	// node at position q, ascending because members is.
	slot := sc.mark
	defer func() {
		slot[root] = 0
		for _, v := range members {
			slot[v] = 0
		}
	}()
	slot[root] = int32(n)
	for q, v := range members {
		if v == root {
			return nil, fmt.Errorf("tree: root %d cannot have a parent", v)
		}
		if slot[v] != 0 {
			return nil, fmt.Errorf("tree: node %d listed twice", v)
		}
		slot[v] = int32(q) + 1
	}
	sc.offs = slices.Grow(sc.offs[:0], 2*n+1)[:2*n+1]
	start, next := sc.offs[:n+1], sc.offs[n+1:]
	clear(start)
	for _, v := range members {
		p := parent[v]
		if p < 0 || int(p) >= len(slot) || slot[p] == 0 {
			return nil, fmt.Errorf("tree: parent %d of node %d is not a member", p, v)
		}
		start[slot[p]]++
	}
	for q := 1; q <= n; q++ {
		start[q] += start[q-1]
	}
	sc.kids = slices.Grow(sc.kids[:0], m)[:m]
	kids := sc.kids
	copy(next, start[:n])
	for _, v := range members {
		q := slot[parent[v]] - 1
		kids[next[q]] = v
		next[q]++
	}

	t := &Tree{
		g:          g,
		nodes:      make([]graph.NodeID, 0, n),
		idx:        make(map[graph.NodeID]int32, n),
		parent:     make([]int32, 0, n),
		parentPort: make([]int32, 0, n),
		childPort:  make([]int32, 0, n),
		edgeW:      make([]float64, 0, n),
		depth:      make([]float64, 0, n),
	}
	t.push(root, -1, -1, -1, 0, 0)
	for qi := 0; qi < len(t.nodes); qi++ {
		u := t.nodes[qi]
		q := slot[u] - 1
		for _, c := range kids[start[q]:start[q+1]] {
			port := g.PortTo(c, u)
			if port < 0 {
				return nil, fmt.Errorf("tree: %d and %d are not adjacent", c, u)
			}
			e := g.EdgeAt(c, port)
			t.push(c, int32(qi), int32(port), int32(g.ReversePort(c, port)),
				e.Weight, t.depth[qi]+e.Weight)
		}
	}
	if len(t.nodes) != n {
		return nil, fmt.Errorf("tree: %d of %d nodes unreachable from root", n-len(t.nodes), n)
	}
	t.finish()
	if order == nil {
		t.sortByDepth()
		return t, nil
	}
	// slot[v] becomes 1 + v's tree index; order lists the members by
	// (depth, name), so the first n members it names are all of them.
	for i, v := range t.nodes {
		slot[v] = int32(i) + 1
	}
	t.byDepth = make([]int32, 0, n)
	for _, v := range order {
		if slot[v] != 0 {
			t.byDepth = append(t.byDepth, slot[v]-1)
			if len(t.byDepth) == n {
				return t, nil
			}
		}
	}
	return nil, fmt.Errorf("tree: order lists %d of %d members", len(t.byDepth), n)
}

func (t *Tree) push(id graph.NodeID, parent, parentPort, childPort int32, w, d float64) {
	t.idx[id] = int32(len(t.nodes))
	t.nodes = append(t.nodes, id)
	t.parent = append(t.parent, parent)
	t.parentPort = append(t.parentPort, parentPort)
	t.childPort = append(t.childPort, childPort)
	t.edgeW = append(t.edgeW, w)
	t.depth = append(t.depth, d)
}

// finish computes children, sizes, DFS numbering and heavy children.
// Iterative to stay safe on path-shaped trees.
func (t *Tree) finish() {
	n := len(t.nodes)
	t.childOff = make([]int32, n+1)
	for i := 1; i < n; i++ {
		t.childOff[t.parent[i]+1]++
	}
	for i := 1; i <= n; i++ {
		t.childOff[i] += t.childOff[i-1]
	}
	t.childList = make([]int32, n-1)
	fill := make([]int32, n)
	copy(fill, t.childOff[:n])
	for i := 1; i < n; i++ {
		p := t.parent[i]
		t.childList[fill[p]] = int32(i)
		fill[p]++
	}
	t.size = make([]int32, n)
	// Nodes were pushed in BFS order, so a reverse sweep sees children
	// before parents.
	for i := n - 1; i >= 0; i-- {
		t.size[i] = 1
		for _, c := range t.Children(i) {
			t.size[i] += t.size[c]
		}
	}
	t.heavy = make([]int32, n)
	for i := 0; i < n; i++ {
		t.heavy[i] = -1
		best := int32(-1)
		for _, c := range t.Children(i) {
			if best < 0 || t.size[c] > t.size[best] {
				best = c
			}
		}
		t.heavy[i] = best
	}
	// DFS preorder that always descends into the heavy child first, so
	// heavy-path labels are contiguous intervals.
	t.pre = make([]int32, n)
	t.post = make([]int32, n)
	type frame struct {
		node int32
		next int32 // -1: heavy child next; else the next index into the children
	}
	counter := int32(1) // the root takes preorder 0
	stack := []frame{{0, -1}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		heavy := t.heavy[f.node]
		c := int32(-1)
		if f.next < 0 {
			f.next, c = 0, heavy
		}
		kids := t.Children(int(f.node))
		for c < 0 && int(f.next) < len(kids) {
			if kids[f.next] != heavy {
				c = kids[f.next]
			}
			f.next++
		}
		if c < 0 {
			t.post[f.node] = counter
			stack = stack[:len(stack)-1]
			continue
		}
		t.pre[c] = counter
		counter++
		stack = append(stack, frame{c, -1})
	}
}

// sortByDepth computes the by-depth order by sorting on (depth, name).
func (t *Tree) sortByDepth() {
	t.byDepth = make([]int32, len(t.nodes))
	for i := range t.byDepth {
		t.byDepth[i] = int32(i)
	}
	slices.SortFunc(t.byDepth, func(i, j int32) int {
		if c := cmp.Compare(t.depth[i], t.depth[j]); c != 0 {
			return c
		}
		return cmp.Compare(t.g.Name(t.nodes[i]), t.g.Name(t.nodes[j]))
	})
}

// FromSPT builds the full shortest-path tree of a Dijkstra result,
// restricted to its reached component.
func FromSPT(g *graph.Graph, src graph.NodeID, parent []graph.NodeID) (*Tree, error) {
	sc := getScratch(g.N())
	defer scratchPool.Put(sc)
	members := sc.ids[:0]
	for v, p := range parent {
		if p >= 0 {
			members = append(members, graph.NodeID(v))
		}
	}
	sc.ids = members
	return fromParents(sc, g, src, parent, members, nil)
}

// FromPaths builds the union of root→target shortest paths in a
// Dijkstra row from the root: the "minimum cost path tree spanning" a
// target set, as used for the landmark trees T(c(u,i)) in §3.1.
// Intermediate path nodes become tree members too (they must store
// routing state for the tree to work). The tree depends on the target
// set only, not on its order.
//
// A member's depth is its parent's depth plus the lightest edge
// between them, the same float sum the row stored as its distance, so
// the by-depth order is the row's Order restricted to the members and
// needs no sort.
func FromPaths(g *graph.Graph, row *sssp.Result, targets []graph.NodeID) (*Tree, error) {
	src, parent := row.Source, row.Parent
	sc := getScratch(g.N())
	defer scratchPool.Put(sc)
	onPath := sc.mark
	onPath[src] = 1
	var err error
walk:
	for _, v := range targets {
		for u := v; onPath[u] == 0; u = parent[u] {
			if parent[u] < 0 {
				err = fmt.Errorf("tree: target %d unreachable from root %d", v, src)
				break walk
			}
			onPath[u] = 1
		}
	}
	// Collect the members in ascending id, clearing the marks
	// fromParents takes over.
	members := sc.ids[:0]
	for v := range g.N() {
		if onPath[v] != 0 {
			onPath[v] = 0
			if graph.NodeID(v) != src {
				members = append(members, graph.NodeID(v))
			}
		}
	}
	sc.ids = members
	if err != nil {
		return nil, err
	}
	return fromParents(sc, g, src, parent, members, row.Order)
}

// Len returns the number of tree members.
func (t *Tree) Len() int { return len(t.nodes) }

// Graph returns the underlying graph.
func (t *Tree) Graph() *graph.Graph { return t.g }

// Root returns the root's graph id.
func (t *Tree) Root() graph.NodeID { return t.nodes[0] }

// Node maps a tree index to its graph id.
func (t *Tree) Node(i int) graph.NodeID { return t.nodes[i] }

// Index maps a graph id to its tree index.
func (t *Tree) Index(id graph.NodeID) (int, bool) {
	i, ok := t.idx[id]
	return int(i), ok
}

// Contains reports tree membership of a graph node.
func (t *Tree) Contains(id graph.NodeID) bool {
	_, ok := t.idx[id]
	return ok
}

// Parent returns the parent tree index of i (-1 for the root).
func (t *Tree) Parent(i int) int { return int(t.parent[i]) }

// ParentPort returns the graph port at member i crossing to its parent.
func (t *Tree) ParentPort(i int) int { return int(t.parentPort[i]) }

// ChildPort returns the graph port at i's parent crossing to i.
func (t *Tree) ChildPort(i int) int { return int(t.childPort[i]) }

// EdgeWeight returns the weight of the edge from i to its parent.
func (t *Tree) EdgeWeight(i int) float64 { return t.edgeW[i] }

// Depth returns the weighted tree distance from the root to i.
func (t *Tree) Depth(i int) float64 { return t.depth[i] }

// Children returns i's children as tree indices (do not mutate).
func (t *Tree) Children(i int) []int32 {
	lo, hi := t.childOff[i], t.childOff[i+1]
	return t.childList[lo:hi:hi]
}

// SubtreeSize returns the number of members in i's subtree.
func (t *Tree) SubtreeSize(i int) int { return int(t.size[i]) }

// Heavy returns the child of i with the largest subtree, or -1.
func (t *Tree) Heavy(i int) int { return int(t.heavy[i]) }

// Pre returns i's DFS preorder number (heavy child visited first).
func (t *Tree) Pre(i int) int { return int(t.pre[i]) }

// Post returns one past the largest preorder number in i's subtree.
func (t *Tree) Post(i int) int { return int(t.post[i]) }

// InSubtree reports whether desc lies in anc's subtree.
func (t *Tree) InSubtree(anc, desc int) bool {
	return t.pre[anc] <= t.pre[desc] && t.pre[desc] < t.post[anc]
}

// ByDepth returns the tree indices sorted by (depth, name): the order
// Lemma 4 assigns primary names in (do not mutate). A FromPaths tree
// reads it off its row's Order; the others sort.
func (t *Tree) ByDepth() []int32 { return t.byDepth }

// Radius returns max_u d_T(root, u), the rad(T) of Lemma 6.
func (t *Tree) Radius() float64 {
	r := 0.0
	for _, d := range t.depth {
		if d > r {
			r = d
		}
	}
	return r
}

// MaxEdge returns the heaviest tree edge weight, Lemma 6's maxE(T).
func (t *Tree) MaxEdge() float64 {
	m := 0.0
	for i := 1; i < len(t.edgeW); i++ {
		if t.edgeW[i] > m {
			m = t.edgeW[i]
		}
	}
	return m
}

// Dist returns the tree distance between two members.
func (t *Tree) Dist(a, b int) float64 {
	l := t.LCA(a, b)
	return t.depth[a] + t.depth[b] - 2*t.depth[l]
}

// LCA returns the lowest common ancestor by depth-stepping. O(depth);
// fine for verification, not used on hot routing paths.
func (t *Tree) LCA(a, b int) int {
	for a != b {
		if t.depth[a] >= t.depth[b] && a != 0 {
			a = int(t.parent[a])
		} else {
			b = int(t.parent[b])
		}
	}
	return a
}

// PathToRoot returns the tree indices from i up to the root, inclusive.
func (t *Tree) PathToRoot(i int) []int {
	var p []int
	for ; i != -1; i = int(t.parent[i]) {
		p = append(p, i)
	}
	return p
}

// Validate rechecks all structural invariants; used by tests.
func (t *Tree) Validate() error {
	n := t.Len()
	for i := 1; i < n; i++ {
		p := int(t.parent[i])
		e := t.g.EdgeAt(t.nodes[i], int(t.parentPort[i]))
		if e.To != t.nodes[p] {
			return fmt.Errorf("tree: parentPort of %d leads to %d, want %d", i, e.To, t.nodes[p])
		}
		back := t.g.EdgeAt(t.nodes[p], int(t.childPort[i]))
		if back.To != t.nodes[i] {
			return fmt.Errorf("tree: childPort of %d broken", i)
		}
		if math.Abs(t.depth[i]-(t.depth[p]+t.edgeW[i])) > 1e-9 {
			return fmt.Errorf("tree: depth of %d inconsistent", i)
		}
		if !t.InSubtree(p, i) {
			return fmt.Errorf("tree: DFS intervals broken at %d", i)
		}
	}
	return nil
}
