package sssp

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/xrand"
)

// refHeap is the indexed binary heap From ran on before the 4-ary
// heap, keys in a separate per-id array. It is kept only as part of
// refFrom, the oracle below.
type refHeap struct {
	keys []float64
	heap []graph.NodeID
	pos  []int32
}

func newRefHeap(n int) *refHeap {
	h := &refHeap{keys: make([]float64, n), heap: make([]graph.NodeID, 0, n), pos: make([]int32, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *refHeap) push(u graph.NodeID, key float64) {
	h.keys[u] = key
	h.pos[u] = int32(len(h.heap))
	h.heap = append(h.heap, u)
	h.up(len(h.heap) - 1)
}

func (h *refHeap) decreaseKey(u graph.NodeID, key float64) {
	if key >= h.keys[u] {
		return
	}
	h.keys[u] = key
	h.up(int(h.pos[u]))
}

func (h *refHeap) popMin() (graph.NodeID, float64) {
	u := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[u] = -1
	if last > 0 {
		h.down(0)
	}
	return u, h.keys[u]
}

func (h *refHeap) less(i, j int) bool {
	a, b := h.heap[i], h.heap[j]
	if h.keys[a] != h.keys[b] {
		return h.keys[a] < h.keys[b]
	}
	return a < b
}

func (h *refHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *refHeap) up(i int) {
	for i > 0 && h.less(i, (i-1)/2) {
		h.swap(i, (i-1)/2)
		i = (i - 1) / 2
	}
}

func (h *refHeap) down(i int) {
	for {
		l, r, smallest := 2*i+1, 2*i+2, i
		if l < len(h.heap) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.heap) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// refFrom is From as it was before the 4-ary heap: a binary heap,
// edges read through the Neighbors callback and ReversePort, and the
// whole row stable-sorted by (distance, name) at the end.
func refFrom(g *graph.Graph, src graph.NodeID) *Result {
	n := g.N()
	res := &Result{
		Source:     src,
		Dist:       make([]float64, n),
		Parent:     make([]graph.NodeID, n),
		ParentPort: make([]int32, n),
		g:          g,
	}
	for i := 0; i < n; i++ {
		res.Dist[i] = math.Inf(1)
		res.Parent[i] = -1
		res.ParentPort[i] = -1
	}
	res.Dist[src] = 0
	h := newRefHeap(n)
	h.push(src, 0)
	for len(h.heap) > 0 {
		u, du := h.popMin()
		res.Order = append(res.Order, u)
		g.Neighbors(u, func(e graph.Edge) bool {
			alt := du + e.Weight
			if alt < res.Dist[e.To] {
				res.Dist[e.To] = alt
				res.Parent[e.To] = u
				res.ParentPort[e.To] = int32(g.ReversePort(u, e.Port))
				if h.pos[e.To] >= 0 {
					h.decreaseKey(e.To, alt)
				} else {
					h.push(e.To, alt)
				}
			}
			return true
		})
	}
	sort.SliceStable(res.Order, func(i, j int) bool {
		a, b := res.Order[i], res.Order[j]
		if res.Dist[a] != res.Dist[b] {
			return res.Dist[a] < res.Dist[b]
		}
		return g.Name(a) < g.Name(b)
	})
	return res
}

// withParallel copies g and adds, beside every other edge, a parallel
// edge: of the same weight when equal is set, else of a random one.
func withParallel(g *graph.Graph, seed uint64, equal bool) *graph.Graph {
	rng := xrand.New(seed)
	b := graph.NewBuilder()
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		b.AddNode(g.Name(v))
	}
	e := 0
	g.ForEachEdge(func(u, v graph.NodeID, w float64) bool {
		if err := b.AddEdge(u, v, w); err != nil {
			panic(err)
		}
		if e%2 == 0 {
			pw := w
			if !equal {
				pw = float64(1 + rng.Intn(4))
			}
			if err := b.AddEdge(v, u, pw); err != nil {
				panic(err)
			}
		}
		e++
		return true
	})
	out, err := b.Build()
	if err != nil {
		panic(err)
	}
	return out
}

// disconnected joins a unit-weight ring, a weighted gnp and an
// isolated node into one graph without edges between them.
func disconnected() *graph.Graph {
	b := graph.NewBuilder()
	var parts []*graph.Graph
	parts = append(parts, gen.Ring(41, 20, gen.Unit()), gen.Gnp(42, 30, 0.1, gen.Uniform(1, 3)))
	base := 0
	for pi, part := range parts {
		for v := graph.NodeID(0); int(v) < part.N(); v++ {
			b.AddNode(xrand.Hash64(uint64(pi), uint64(v)))
		}
		part.ForEachEdge(func(u, v graph.NodeID, w float64) bool {
			if err := b.AddEdge(u+graph.NodeID(base), v+graph.NodeID(base), w); err != nil {
				panic(err)
			}
			return true
		})
		base += part.N()
	}
	b.AddNode(0xdead)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// sameResult compares two per-source results field by field.
func sameResult(a, b *Result) error {
	if a.Source != b.Source {
		return fmt.Errorf("source %d vs %d", a.Source, b.Source)
	}
	if len(a.Dist) != len(b.Dist) || len(a.Order) != len(b.Order) {
		return fmt.Errorf("shape mismatch")
	}
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] || a.Parent[v] != b.Parent[v] || a.ParentPort[v] != b.ParentPort[v] {
			return fmt.Errorf("row %d differs at node %d", a.Source, v)
		}
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			return fmt.Errorf("row %d order differs at %d", a.Source, i)
		}
	}
	return nil
}

// TestFromMatchesBinaryHeapReference holds From to refFrom on every
// source of graphs chosen for ties (unit and power-of-two weights, a
// grid, a ring), hubs (preferential attachment), parallel edges of
// equal and unequal weight, and unreached nodes, directly and through
// AllPairsParallel at 1 and 4 workers.
func TestFromMatchesBinaryHeapReference(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-uniform", gen.Gnp(1, 120, 0.05, gen.Uniform(1, 8))},
		{"gnp-unit", gen.Gnp(2, 120, 0.05, gen.Unit())},
		{"gnp-pow2", gen.Gnp(3, 120, 0.05, gen.PowerOfTwo(6))},
		{"grid", gen.Grid(4, 9, 11, gen.Unit())},
		{"geometric", gen.Geometric(5, 100, 0.2)},
		{"prefattach", gen.PrefAttach(6, 100, 2, gen.PowerOfTwo(3))},
		{"ring", gen.Ring(7, 64, gen.Unit())},
		{"parallel-equal", withParallel(gen.Gnp(8, 80, 0.06, gen.Uniform(1, 4)), 8, true)},
		{"parallel-unequal", withParallel(gen.Gnp(9, 80, 0.06, gen.PowerOfTwo(2)), 9, false)},
		{"disconnected", disconnected()},
	}
	for _, c := range cases {
		g := c.g
		want := make([]*Result, g.N())
		for u := range want {
			want[u] = refFrom(g, graph.NodeID(u))
		}
		check := func(how string, got []*Result) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d rows, want %d", c.name, how, len(got), len(want))
			}
			for u := range want {
				if err := sameResult(got[u], want[u]); err != nil {
					t.Fatalf("%s %s: %v", c.name, how, err)
				}
			}
		}
		direct := make([]*Result, g.N())
		for u := range direct {
			direct[u] = From(g, graph.NodeID(u))
		}
		check("From", direct)
		for _, workers := range []int{1, 4} {
			check(fmt.Sprintf("AllPairsParallel/%d", workers), AllPairsParallel(g, workers))
		}
	}
}
