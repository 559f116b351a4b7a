package baseline

import (
	"fmt"
	"math"

	"compactroute/internal/bitsize"
	"compactroute/internal/graph"
	"compactroute/internal/routeerr"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
	"compactroute/internal/tree"
	"compactroute/internal/treeroute"
	"compactroute/internal/xrand"
)

// TZ is Thorup–Zwick labeled compact routing [29]: the labeled-model
// reference the paper compares its name-independent result against
// (§1.3). Levels A_0 = V ⊇ A_1 ⊇ … ⊇ A_{k−1} are sampled with
// probability n^{−1/k}; the pivot p_i(v) is v's nearest A_i node; the
// cluster of a landmark w ∈ A_i \ A_{i+1} is C(w) = {v : d(v,w) <
// d(v,A_{i+1})} (C(w) = V for top-level w). Every node stores the
// tree-routing record of each cluster tree containing it — Õ(k·n^{1/k})
// expected. A destination's *label* lists its pivots with their tree
// labels; routing tries pivots bottom-up and routes through the first
// one whose cluster contains the source. Stretch ≤ 4k−3 (we measure
// it; TZ's refined analysis gives 4k−5).
//
// TZ is labeled, not name-independent: Begin requires the
// destination's label, which the experiment harness distributes out of
// band. That asymmetry is the point of the comparison.
type TZ struct {
	g *graph.Graph
	k int
	// trees[w] is the cluster tree of landmark w with its labeled
	// routing scheme.
	trees map[graph.NodeID]*tzTree
	// labels[v] is v's routing label.
	labels []TZLabel
	acct   *bitsize.Accountant
}

type tzTree struct {
	t  *tree.Tree
	lr *treeroute.Scheme
}

// TZPivot is one entry of a TZ label.
type TZPivot struct {
	W     graph.NodeID // the pivot p_i(v)
	Label treeroute.Label
	Skip  bool // pivot collapsed into the next level
}

// TZLabel is a destination label: one pivot per level.
type TZLabel struct {
	V      graph.NodeID
	Pivots []TZPivot // index i = level i
}

// Bits returns the label's accounting size.
func (l TZLabel) Bits() bitsize.Bits {
	b := bitsize.NameBits
	for _, p := range l.Pivots {
		if p.Skip {
			b += 1
			continue
		}
		b += 1 + bitsize.NameBits + p.Label.Bits()
	}
	return b
}

// TZParams configures the baseline.
type TZParams struct {
	K    int
	Seed uint64
}

// NewTZ builds the labeled scheme from all-pairs shortest paths in two
// passes over the rows. Pass one reads each node's row for its
// per-level pivots and d(v, A_i); pass two reads each landmark's row —
// every node is a level-0 landmark — for cluster membership and the
// cluster tree.
func NewTZ(g *graph.Graph, all []*sssp.Result, p TZParams) (*TZ, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("baseline: tz k must be ≥ 1")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("baseline: tz needs a connected graph")
	}
	n := g.N()
	z := &TZ{g: g, k: p.K, trees: make(map[graph.NodeID]*tzTree), acct: bitsize.NewAccountant(n)}

	// Sample nested levels; rank(v) = highest level containing v.
	rng := xrand.New(p.Seed ^ 0x72b007)
	keep := math.Pow(float64(n), -1/float64(p.K))
	rank := make([]int, n)
	top := 0
	for v := 0; v < n; v++ {
		r := 0
		for j := 1; j <= p.K-1; j++ {
			if rng.Bool(keep) {
				r = j
			} else {
				break
			}
		}
		rank[v] = r
		if r > top {
			top = r
		}
	}

	// Pass 1 — pivots: distToLevel[v][i] = d(v, A_i); +Inf above the
	// top occupied level. Uses only v's own row.
	distToLevel := make([][]float64, n)
	pivot := make([][]graph.NodeID, n)
	for v, r := range all {
		distToLevel[v] = make([]float64, p.K+1)
		pivot[v] = make([]graph.NodeID, p.K)
		for i := 0; i <= p.K; i++ {
			distToLevel[v][i] = math.Inf(1)
		}
		for i := 0; i <= top; i++ {
			c := r.Closest(1, func(w graph.NodeID) bool { return rank[w] >= i })
			if len(c) == 1 {
				pivot[v][i] = c[0]
				distToLevel[v][i] = r.Dist[c[0]]
			}
		}
		// Collapse pivots above the top occupied level onto the top.
		for i := top + 1; i < p.K; i++ {
			pivot[v][i] = pivot[v][top]
			distToLevel[v][i] = distToLevel[v][top]
		}
	}

	// Pass 2 — clusters: C(w) = {v : d(v,w) < d(v, A_{rank(w)+1})}; V
	// for top-level landmarks. Membership and the cluster tree both
	// come from w's own row (d(v,w) = d(w,v) on an undirected graph).
	for w, r := range all {
		rw := rank[w]
		isTop := rw >= top
		members := []graph.NodeID{}
		for v := 0; v < n; v++ {
			if isTop || r.Dist[v] < distToLevel[v][rw+1] {
				members = append(members, graph.NodeID(v))
			}
		}
		if len(members) == 1 && members[0] == graph.NodeID(w) && !isTop {
			continue // singleton cluster: no structure needed
		}
		t, err := tree.FromPaths(g, r, members)
		if err != nil {
			return nil, fmt.Errorf("baseline: tz cluster of %d: %w", w, err)
		}
		z.trees[graph.NodeID(w)] = &tzTree{t: t, lr: treeroute.New(t)}
	}

	// Labels: per level the pivot and v's tree label in its cluster.
	z.labels = make([]TZLabel, n)
	for v := 0; v < n; v++ {
		lbl := TZLabel{V: graph.NodeID(v)}
		for i := 0; i < p.K; i++ {
			w := pivot[v][i]
			if i > 0 && w == pivot[v][i-1] {
				lbl.Pivots = append(lbl.Pivots, TZPivot{Skip: true})
				continue
			}
			tw := z.trees[w]
			if tw == nil {
				lbl.Pivots = append(lbl.Pivots, TZPivot{Skip: true})
				continue
			}
			tl, ok := tw.lr.LabelOf(graph.NodeID(v))
			if !ok {
				// v outside C(w): cannot descend through this pivot.
				lbl.Pivots = append(lbl.Pivots, TZPivot{Skip: true})
				continue
			}
			lbl.Pivots = append(lbl.Pivots, TZPivot{W: w, Label: tl})
		}
		z.labels[v] = lbl
	}

	// Storage: µ of every cluster tree containing the node.
	for _, tw := range z.trees {
		for i := 0; i < tw.t.Len(); i++ {
			x := int(tw.t.Node(i))
			z.acct.Add(x, "cluster-trees", tw.lr.LocalBits(i)+bitsize.NameBits)
		}
	}
	return z, nil
}

// Label returns v's routing label (distributed out of band).
func (z *TZ) Label(v graph.NodeID) TZLabel { return z.labels[v] }

// MaxTableBits returns the largest per-node table.
func (z *TZ) MaxTableBits() bitsize.Bits { return z.acct.MaxNodeBits() }

// MeanTableBits returns the mean per-node table size.
func (z *TZ) MeanTableBits() float64 { return z.acct.MeanNodeBits() }

// MaxLabelBits returns the largest label.
func (z *TZ) MaxLabelBits() bitsize.Bits {
	var m bitsize.Bits
	for _, l := range z.labels {
		if b := l.Bits(); b > m {
			m = b
		}
	}
	return m
}

// tzHeader carries the destination label and the chosen pivot leg.
// Once the source commits to a pivot it also holds that pivot's cluster
// tree and the walk's position in it, the tree index of the current
// node, which is not charged (see treeroute.Scheme.Step).
type tzHeader struct {
	label   TZLabel
	tw      *tzTree // nil until the source commits to a pivot
	pivotIx int32
	at      int32
}

// Bits implements sim.Header: the in-flight header size.
func (h *tzHeader) Bits() bitsize.Bits { return h.label.Bits() + 8 }

// Name implements sim.Router.
func (z *TZ) Name() string { return fmt.Sprintf("tz-labeled-k%d", z.k) }

// Begin implements sim.Router: dstName is resolved to a label out of
// band (labels are the model's addresses). A name no node carries has
// no label and is the caller's error (wrapped ErrUnknownName) — unlike
// the name-independent schemes, TZ cannot go searching for it.
func (z *TZ) Begin(src graph.NodeID, dstName uint64) (sim.Header, error) {
	id, ok := z.g.Lookup(dstName)
	if !ok {
		return nil, fmt.Errorf("baseline: tz: destination name %#x: %w", dstName, routeerr.ErrUnknownName)
	}
	return &tzHeader{label: z.labels[id]}, nil
}

// Step implements sim.Router.
func (z *TZ) Step(x graph.NodeID, hh sim.Header) (sim.Action, int, error) {
	h, ok := hh.(*tzHeader)
	if !ok {
		return 0, 0, fmt.Errorf("baseline: foreign header %T", hh)
	}
	if x == h.label.V {
		return sim.Delivered, 0, nil
	}
	if h.tw == nil {
		// Source decision: lowest-level usable pivot whose cluster
		// contains x (so x can ascend its tree).
		for i, p := range h.label.Pivots {
			if p.Skip {
				continue
			}
			tw := z.trees[p.W]
			if tw == nil {
				continue
			}
			if at, ok := tw.t.Index(x); ok {
				h.tw, h.pivotIx, h.at = tw, int32(i), int32(at)
				break
			}
		}
		if h.tw == nil {
			return sim.Failed, 0, nil // cannot happen: top cluster = V
		}
	}
	// Route along the cluster tree path to v: never longer than the
	// classic two-leg source→pivot→v walk.
	arrived, port, next, err := h.tw.lr.Step(x, int(h.at), h.label.Pivots[h.pivotIx].Label)
	if err != nil {
		return 0, 0, err
	}
	if arrived {
		return sim.Delivered, 0, nil
	}
	h.at = int32(next)
	return sim.Forward, port, nil
}
