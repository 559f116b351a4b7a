// Package baseline implements the comparison schemes of §1 and §1.3:
//
//   - FullTable: the trivial stretch-1 scheme — every node stores the
//     next hop of an all-pairs shortest path computation, Θ(n·log n)
//     bits per node. The intro's strawman.
//   - APCover: an Awerbuch–Peleg-style hierarchical tree-cover scheme
//     [9,10] with the linear-stretch routing of [3]: one sparse cover
//     per radius scale 2^i for *every* i up to ⌈log₂ Δ⌉. Linear
//     stretch, but per-node storage grows with log Δ — the
//     aspect-ratio-dependent foil the paper's scale-free claim is
//     measured against (experiment T2).
//   - LandmarkChain: a scale-free hash-chain landmark scheme in the
//     same Õ(n^{1/k}) space family as the exponential-stretch schemes
//     [7,8,6]; its stretch is unbounded in the worst case
//     (experiment T3; DESIGN.md substitution #6).
//   - TZ: Thorup–Zwick labeled compact routing [29] (stretch 4k−5) as
//     the labeled-model reference point (experiment T8). Labeled
//     schemes get topology-dependent addresses, so TZ is *not* a
//     name-independent competitor; it marks the easier baseline the
//     paper's model deliberately forgoes.
package baseline

import (
	"fmt"

	"compactroute/internal/bitsize"
	"compactroute/internal/graph"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
)

// FullTable is the stretch-1 strawman: per-node next-hop tables.
type FullTable struct {
	g *graph.Graph
	// next[u][v] is the port at u toward v on a shortest path.
	next [][]int32
	acct *bitsize.Accountant
}

// NewFullTable builds next-hop tables from all-pairs shortest paths.
// Each source's table row depends only on that source's shortest-path
// tree; the n×n table is the scheme's storage.
func NewFullTable(g *graph.Graph, all []*sssp.Result) (*FullTable, error) {
	n := g.N()
	if len(all) != n {
		return nil, fmt.Errorf("baseline: got %d results for %d nodes", len(all), n)
	}
	f := &FullTable{g: g, next: make([][]int32, n), acct: bitsize.NewAccountant(n)}
	for u, r := range all {
		f.next[u] = f.fillRow(r)
	}
	idb := bitsize.IDBits(n)
	for u := 0; u < n; u++ {
		pb := bitsize.IDBits(g.Degree(graph.NodeID(u)))
		f.acct.Add(u, "next-hop-table", bitsize.Bits(n-1)*(idb+pb))
	}
	return f, nil
}

// fillRow computes one source's next-hop row from its shortest-path
// tree: the first hop toward v is the reverse of the parent step just
// below the source. Parent chains are walked with memoization (every
// node on the chain shares v's first hop), so a row costs O(n) instead
// of O(n · depth).
func (f *FullTable) fillRow(r *sssp.Result) []int32 {
	src := r.Source
	row := make([]int32, f.g.N())
	for v := range row {
		row[v] = -1
	}
	var chain []graph.NodeID
	for v := 0; v < f.g.N(); v++ {
		if graph.NodeID(v) == src || !r.Reached(graph.NodeID(v)) {
			continue
		}
		if row[v] >= 0 {
			continue // memoized by an earlier chain walk
		}
		// Ascend until the node below src or an already-filled node.
		chain = chain[:0]
		x := graph.NodeID(v)
		for r.Parent[x] != src && row[x] < 0 {
			chain = append(chain, x)
			x = r.Parent[x]
		}
		port := row[x]
		if port < 0 {
			// x is the child of src on the path: the port at src toward
			// x is the reverse of x's parent port.
			port = int32(f.g.ReversePort(x, int(r.ParentPort[x])))
			row[x] = port
		}
		for _, y := range chain {
			row[y] = port
		}
	}
	return row
}

// ftHeader is a FullTable routing header: just the destination name.
type ftHeader struct {
	dst graph.NodeID
	ok  bool
}

// Bits implements sim.Header: the in-flight header size.
func (h *ftHeader) Bits() bitsize.Bits { return bitsize.NameBits }

// Name implements sim.Router.
func (f *FullTable) Name() string { return "full-table" }

// Begin implements sim.Router. Full tables are name-independent only
// because every node also stores the name→id directory; its cost is
// part of the table accounting (ids are names here).
func (f *FullTable) Begin(src graph.NodeID, dstName uint64) (sim.Header, error) {
	id, ok := f.g.Lookup(dstName)
	return &ftHeader{dst: id, ok: ok}, nil
}

// Step implements sim.Router.
func (f *FullTable) Step(x graph.NodeID, hh sim.Header) (sim.Action, int, error) {
	h, ok := hh.(*ftHeader)
	if !ok {
		return 0, 0, fmt.Errorf("baseline: foreign header %T", hh)
	}
	if !h.ok {
		return sim.Failed, 0, nil
	}
	if x == h.dst {
		return sim.Delivered, 0, nil
	}
	port := f.next[x][h.dst]
	if port < 0 {
		return sim.Failed, 0, nil
	}
	return sim.Forward, int(port), nil
}

// G returns the underlying graph.
func (f *FullTable) G() *graph.Graph { return f.g }

// MaxTableBits returns the largest per-node table.
func (f *FullTable) MaxTableBits() bitsize.Bits { return f.acct.MaxNodeBits() }

// MeanTableBits returns the mean per-node table size.
func (f *FullTable) MeanTableBits() float64 { return f.acct.MeanNodeBits() }
