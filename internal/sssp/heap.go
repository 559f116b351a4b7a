package sssp

import (
	"sync"

	"compactroute/internal/graph"
)

// heapEntry is one queued node with its tentative distance, held
// inline so a comparison reads no other array.
type heapEntry struct {
	key float64
	id  graph.NodeID
}

// less orders entries by (key, id): a strict total order, since ids
// are unique, so the minimum is always one entry.
func (a heapEntry) less(b heapEntry) bool {
	return a.key < b.key || (a.key == b.key && a.id < b.id)
}

// indexedHeap is a 4-ary min-heap of (key, id) entries with
// decrease-key support, the Dijkstra workhorse. pos tracks each
// queued id's slot so DecreaseKey is O(log n). Four children per slot
// halve the depth of a binary heap, and a child's comparison reads its
// own entry, so a sift costs fewer, more local memory reads.
type indexedHeap struct {
	items []heapEntry
	pos   []int32 // node id -> index in items, -1 if absent
}

func newIndexedHeap(n int) *indexedHeap {
	h := &indexedHeap{
		items: make([]heapEntry, 0, n),
		pos:   make([]int32, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// heapPool holds the heaps of finished searches. A search pops every
// id it pushes, so a returned heap is empty and its pos is all -1.
var heapPool = sync.Pool{New: func() any { return new(indexedHeap) }}

// getHeap returns an empty pooled heap covering node ids below n.
func getHeap(n int) *indexedHeap {
	h := heapPool.Get().(*indexedHeap)
	if len(h.pos) < n {
		*h = *newIndexedHeap(n)
	}
	return h
}

// Len returns the number of queued nodes.
func (h *indexedHeap) Len() int { return len(h.items) }

// Contains reports whether u is currently queued.
func (h *indexedHeap) Contains(u graph.NodeID) bool { return h.pos[u] >= 0 }

// Push inserts u with the given key. u must not already be present.
func (h *indexedHeap) Push(u graph.NodeID, key float64) {
	h.items = append(h.items, heapEntry{})
	h.up(len(h.items)-1, heapEntry{key, u})
}

// DecreaseKey lowers u's key. It is a no-op if the new key is not lower.
func (h *indexedHeap) DecreaseKey(u graph.NodeID, key float64) {
	i := h.pos[u]
	if key >= h.items[i].key {
		return
	}
	h.up(int(i), heapEntry{key, u})
}

// PopMin removes and returns the id with the smallest key.
func (h *indexedHeap) PopMin() (graph.NodeID, float64) {
	top := h.items[0]
	last := len(h.items) - 1
	tail := h.items[last]
	h.items = h.items[:last]
	h.pos[top.id] = -1
	if last > 0 {
		h.down(0, tail)
	}
	return top.id, top.key
}

// up places e at slot i or above, moving larger parents down.
func (h *indexedHeap) up(i int, e heapEntry) {
	for i > 0 {
		p := (i - 1) / 4
		pe := h.items[p]
		if !e.less(pe) {
			break
		}
		h.items[i] = pe
		h.pos[pe.id] = int32(i)
		i = p
	}
	h.items[i] = e
	h.pos[e.id] = int32(i)
}

// down places e at slot i or below, moving smaller children up.
func (h *indexedHeap) down(i int, e heapEntry) {
	n := len(h.items)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best, be := c, h.items[c]
		for j := c + 1; j < min(c+4, n); j++ {
			if h.items[j].less(be) {
				best, be = j, h.items[j]
			}
		}
		if !be.less(e) {
			break
		}
		h.items[i] = be
		h.pos[be.id] = int32(i)
		i = best
	}
	h.items[i] = e
	h.pos[e.id] = int32(i)
}
