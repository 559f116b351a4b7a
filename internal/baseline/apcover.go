package baseline

import (
	"fmt"
	"math"

	"compactroute/internal/bitsize"
	"compactroute/internal/cover"
	"compactroute/internal/covroute"
	"compactroute/internal/graph"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
	"compactroute/internal/xrand"
)

// APCover is the Awerbuch–Peleg-style hierarchical scheme [9,10] with
// [3]'s linear-stretch search: a sparse tree cover of the *whole*
// graph at every radius scale 2^i, i = 0..⌈log₂ Δ⌉. Routing doubles
// the scale until the destination's name resolves in the source's
// home tree. Stretch is O(k) like the paper's scheme, but every node
// stores Θ(log Δ) scales of cover trees — the aspect-ratio dependence
// the paper eliminates.
type APCover struct {
	g      *graph.Graph
	k      int
	minW   float64
	scales []apScale
	acct   *bitsize.Accountant
}

type apScale struct {
	cov    *cover.Cover
	routes []*covroute.Scheme
}

// APCoverParams configures the baseline.
type APCoverParams struct {
	K    int
	Seed uint64
}

// NewAPCover builds covers at every scale of the graph's aspect ratio.
// The rows fix the number of scales (through the largest
// eccentricity), and every scale's cover reads its balls off them.
func NewAPCover(g *graph.Graph, all []*sssp.Result, p APCoverParams) (*APCover, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("baseline: apcover k must be ≥ 1")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("baseline: apcover needs a connected graph")
	}
	minW := g.MinEdgeWeight()
	if g.M() == 0 {
		minW = 1
	}
	maxD := 0.0
	for _, r := range all {
		if rad := r.Radius(); rad > maxD {
			maxD = rad
		}
	}
	aspect := math.Max(maxD/minW, 1)
	scaleCount := int(math.Ceil(math.Log2(aspect))) + 1
	if scaleCount < 1 {
		scaleCount = 1
	}
	a := &APCover{g: g, k: p.K, minW: minW, acct: bitsize.NewAccountant(g.N())}
	for i := 0; i < scaleCount; i++ {
		rho := minW * math.Ldexp(1, i)
		cov, err := cover.Build(g, cover.Params{K: p.K, Rho: rho, Metric: all})
		if err != nil {
			return nil, fmt.Errorf("baseline: apcover scale %d: %w", i, err)
		}
		sc := apScale{cov: cov, routes: make([]*covroute.Scheme, len(cov.Trees))}
		for ti, t := range cov.Trees {
			sc.routes[ti] = covroute.New(t, xrand.Hash64(p.Seed, uint64(i)<<20|uint64(ti)))
		}
		a.scales = append(a.scales, sc)
	}
	// Storage: φ(T,x) for every tree of every scale containing x, plus
	// the per-scale home-tree pointer.
	idb := bitsize.IDBits(g.N())
	for si := range a.scales {
		sc := &a.scales[si]
		for ti, t := range sc.cov.Trees {
			rt := sc.routes[ti]
			for i := 0; i < t.Len(); i++ {
				a.acct.Add(int(t.Node(i)), "cover-trees", rt.StorageBits(i))
			}
		}
		for u := 0; u < g.N(); u++ {
			a.acct.Add(u, "home-pointers", 32+idb)
		}
	}
	return a, nil
}

// Scales returns the number of radius scales (the log Δ factor).
func (a *APCover) Scales() int { return len(a.scales) }

// MaxTableBits returns the largest per-node table.
func (a *APCover) MaxTableBits() bitsize.Bits { return a.acct.MaxNodeBits() }

// MeanTableBits returns the mean per-node table size.
func (a *APCover) MeanTableBits() float64 { return a.acct.MeanNodeBits() }

// apHeader is the in-flight state: current scale and the embedded
// cover lookup.
type apHeader struct {
	dst   uint64
	src   graph.NodeID
	scale int
	cov   *covroute.Route
}

// Bits implements sim.Header: the in-flight header size.
func (h *apHeader) Bits() bitsize.Bits {
	b := bitsize.NameBits + 16
	if h.cov != nil {
		b += h.cov.HeaderBits()
	}
	return b
}

// Name implements sim.Router.
func (a *APCover) Name() string { return fmt.Sprintf("ap-cover-k%d", a.k) }

// Begin implements sim.Router.
func (a *APCover) Begin(src graph.NodeID, dstName uint64) (sim.Header, error) {
	return &apHeader{dst: dstName, src: src, scale: 0}, nil
}

// Step implements sim.Router: doubling-scale search.
func (a *APCover) Step(x graph.NodeID, hh sim.Header) (sim.Action, int, error) {
	h, ok := hh.(*apHeader)
	if !ok {
		return 0, 0, fmt.Errorf("baseline: foreign header %T", hh)
	}
	if h.cov == nil {
		if a.g.Name(x) == h.dst {
			return sim.Delivered, 0, nil
		}
		if x != h.src {
			return 0, 0, fmt.Errorf("baseline: apcover phase start at %d, want %d", x, h.src)
		}
		if h.scale >= len(a.scales) {
			return sim.Failed, 0, nil
		}
		sc := &a.scales[h.scale]
		home := sc.cov.Home(x)
		cr, err := sc.routes[home].NewRoute(h.dst, x)
		if err != nil {
			return 0, 0, err
		}
		h.cov = cr
	}
	sc := &a.scales[h.scale]
	home := sc.cov.Home(h.src)
	act, port, err := sc.routes[home].Step(x, h.cov)
	if err != nil {
		return 0, 0, err
	}
	switch act {
	case covroute.Forward:
		return sim.Forward, port, nil
	case covroute.Delivered:
		return sim.Delivered, 0, nil
	default: // negative response, back at the source
		h.cov = nil
		h.scale++
		return a.Step(x, h)
	}
}
