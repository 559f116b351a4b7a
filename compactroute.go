// Package compactroute is a reproduction of "On Space-Stretch
// Trade-Offs: Upper Bounds" (Abraham, Gavoille, Malkhi; SPAA 2006): a
// name-independent, scale-free compact routing scheme for arbitrary
// weighted graphs with stretch O(k) and Õ(n^{1/k})-bit routing tables
// per node, independent of the network's aspect ratio.
//
// The paper describes a *family* of schemes along the space-stretch
// curve; the package exposes the whole family through one registry.
// Every scheme — the paper's (kind "paper"), the stretch-1 full-table
// strawman ("fulltable"), the Awerbuch–Peleg-style hierarchy
// ("apcover"), the scale-free landmark chain ("landmark"), and
// Thorup–Zwick labeled routing ("tz") — is built by name with Build
// and served, benchmarked, and persisted through the same interface:
//
//	b := compactroute.NewBuilder()
//	a := b.AddNode(0xCAFE) // nodes have arbitrary 64-bit names
//	c := b.AddNode(0xBEEF)
//	b.AddEdge(a, c, 2.5)
//	net, _ := compactroute.BuildNetwork(b)
//	scheme, _ := compactroute.Build(net, compactroute.Config{Kind: "paper", K: 3})
//	res, _ := scheme.RouteByName(0xCAFE, 0xBEEF)
//	fmt.Println(res.Cost, res.Hops)
//
// Routing honors cancellation: RouteCtx/RouteByNameCtx thread the
// context into the hop loop, so long multi-hop routes abort promptly
// with a wrapped context.Canceled. Failures carry the typed error
// taxonomy of errors.go (ErrUnknownName, ErrSaturated, …), matched
// with errors.Is. Persistable kinds round-trip through Save/Load in
// the kind-tagged binary format of internal/codec.
//
// Every scheme builds from the network's all-pairs shortest paths,
// computed once across all cores and kept on the network, so routed
// results carry true stretch (DESIGN.md §6). WrapGraphLazy adopts a
// graph without its metric until a build or EnsureMetric needs it;
// BuildStream is Build honoring cancellation.
//
// Topologies need not be static either: NewDynamic serves a live
// network through versioned snapshots — mutations accumulate in an
// append-only log (Apply), rebuilds reconstruct every configured kind
// in the background (Rebuild), and a hot swap publishes the result
// with a microsecond pause while in-flight routes finish on the
// version they started on (DESIGN.md §7).
//
// Alongside the schemes the package exposes synthetic network
// generators and stretch statistics. See DESIGN.md for the full
// system inventory (and the v1→v2 API migration table) and
// EXPERIMENTS.md for the reproduced results.
package compactroute

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"compactroute/internal/baseline"
	"compactroute/internal/bitsize"
	"compactroute/internal/codec"
	"compactroute/internal/core"
	"compactroute/internal/gio"
	"compactroute/internal/graph"
	"compactroute/internal/schemes"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
	"compactroute/internal/stats"
)

// NodeID identifies a node internally; the routing model itself only
// ever addresses nodes by their arbitrary uint64 names.
type NodeID = graph.NodeID

// GraphBuilder accumulates a weighted undirected network.
type GraphBuilder = graph.Builder

// NewBuilder returns an empty network builder.
func NewBuilder() *GraphBuilder { return graph.NewBuilder() }

// Stretch aggregates routed-vs-shortest ratios.
type Stretch = stats.Stretch

// internal type shorthands shared with registry.go.
type (
	graphT     = graph.Graph
	ssspResult = sssp.Result
	bitsT      = bitsize.Bits
)

// tableSizer is the storage-accounting face every scheme presents.
type tableSizer interface {
	MaxTableBits() bitsize.Bits
	MeanTableBits() float64
}

// Network is a frozen graph with its shortest-path metric, shared by
// every scheme built on it. The metric is optional (networks from
// Load start without one) and published atomically, so routing may
// proceed concurrently with a late EnsureMetric.
type Network struct {
	g        *graph.Graph
	apsp     atomic.Pointer[[]*sssp.Result]
	metricMu sync.Mutex // serializes metric computations (EnsureMetric, metricCtx)
}

// BuildNetwork freezes the builder and precomputes the metric.
func BuildNetwork(b *GraphBuilder) (*Network, error) {
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return WrapGraph(g), nil
}

// WrapGraph adopts an already-built graph (e.g. from the generators).
// The shortest-path metric is computed across all cores.
func WrapGraph(g *graph.Graph) *Network {
	n := &Network{g: g}
	all := sssp.AllPairsParallel(g, 0)
	n.apsp.Store(&all)
	return n
}

// WrapGraphLazy adopts an already-built graph without computing its
// Θ(n²) metric yet. The first Build, BuildStream, NewDynamic or
// EnsureMetric on the network computes it and the network keeps it;
// until then the network answers TryDistance with ErrNoMetric, like a
// network rehydrated by Load.
func WrapGraphLazy(g *graph.Graph) *Network { return &Network{g: g} }

// adoptNetwork wraps a graph together with already-computed all-pairs
// results (no recomputation) — the bridge registered builders use.
func adoptNetwork(g *graph.Graph, apsp []*sssp.Result) *Network {
	n := &Network{g: g}
	if apsp != nil {
		n.apsp.Store(&apsp)
	}
	return n
}

// metric returns the all-pairs results, or nil when absent.
func (n *Network) metric() []*sssp.Result {
	if p := n.apsp.Load(); p != nil {
		return *p
	}
	return nil
}

// Graph exposes the underlying graph (read-only use).
func (n *Network) Graph() *graph.Graph { return n.g }

// N returns the node count.
func (n *Network) N() int { return n.g.N() }

// HasMetric reports whether the all-pairs shortest-path metric is
// available. Networks from BuildNetwork/WrapGraph always have it; a
// WrapGraphLazy network gets it from its first build; networks
// rehydrated by Load do not until EnsureMetric is called — the entire
// point of persistence is serving queries without paying for it.
func (n *Network) HasMetric() bool { return n.apsp.Load() != nil }

// EnsureMetric computes the metric if absent (across all cores). It
// is safe to call concurrently with routing: the metric is published
// atomically, and concurrent callers compute it at most once.
func (n *Network) EnsureMetric() {
	if n.HasMetric() {
		return
	}
	n.metricMu.Lock()
	defer n.metricMu.Unlock()
	if !n.HasMetric() {
		all := sssp.AllPairsParallel(n.g, 0)
		n.apsp.Store(&all)
	}
}

// metricCtx returns the metric, computing and publishing it first when
// absent, as EnsureMetric does, but honoring ctx: a canceled sweep
// returns its wrapped error and publishes nothing.
func (n *Network) metricCtx(ctx context.Context) ([]*sssp.Result, error) {
	if all := n.metric(); all != nil {
		return all, nil
	}
	n.metricMu.Lock()
	defer n.metricMu.Unlock()
	if all := n.metric(); all != nil {
		return all, nil
	}
	all, err := sssp.AllPairsParallelCtx(ctx, n.g, 0)
	if err != nil {
		return nil, err
	}
	n.apsp.Store(&all)
	return all, nil
}

// Distance returns the shortest-path distance between two nodes. It
// panics on a loaded network without EnsureMetric; use TryDistance
// where the metric may legitimately be absent.
func (n *Network) Distance(u, v NodeID) float64 {
	d, err := n.TryDistance(u, v)
	if err != nil {
		panic("compactroute: network has no metric; call EnsureMetric first")
	}
	return d
}

// TryDistance returns the shortest-path distance between two nodes,
// or a wrapped ErrNoMetric when the network's metric is absent.
func (n *Network) TryDistance(u, v NodeID) (float64, error) {
	all := n.metric()
	if all == nil {
		return 0, fmt.Errorf("compactroute: distance %d→%d: %w", u, v, ErrNoMetric)
	}
	return all[u].Dist[v], nil
}

// shortest returns d(u,v) and whether the metric was available to
// answer (Result.MetricKnown).
func (n *Network) shortest(u, v NodeID) (float64, bool) {
	all := n.metric()
	if all == nil {
		return 0, false
	}
	return all[u].Dist[v], true
}

// Result describes one routed message.
type Result struct {
	Delivered bool
	// Cost is the total weight of the traversed path.
	Cost float64
	// Hops is the number of edges traversed.
	Hops int
	// HeaderBits is the largest routing header observed in flight.
	HeaderBits int64
	// ShortestCost is the shortest-path distance (for stretch). It is
	// meaningful only when MetricKnown.
	ShortestCost float64
	// MetricKnown reports that ShortestCost is real: the network had
	// its metric and the destination resolved when this result was
	// computed. False means "unknown" — never "distance zero" — and
	// Stretch then reports its sentinel 1. Measurement paths must
	// check it so an unloaded metric can't masquerade as optimality.
	MetricKnown bool
}

// Stretch returns Cost/ShortestCost. When the stretch is unknowable
// (self-routes, or MetricKnown == false because the network had no
// metric) it returns the sentinel 1; callers that must distinguish
// "optimal" from "unknown" check MetricKnown.
func (r Result) Stretch() float64 {
	if r.ShortestCost <= 0 {
		return 1
	}
	return r.Cost / r.ShortestCost
}

// Scheme is a built routing scheme bound to its network.
type Scheme struct {
	net    *Network
	kind   string // registry kind it was built or loaded as
	router sim.Router
	engine *sim.Engine
	tracer *sim.Engine // engine that records paths, for RoutePathByNameCtx
	table  tableSizer
}

// Core returns the underlying core scheme when this Scheme wraps one
// (for build reports and storage breakdowns), else nil.
func (s *Scheme) Core() *core.Scheme {
	c, _ := s.router.(*core.Scheme)
	return c
}

// The built-in registry kinds (see Kinds for the full, live list),
// aliased from internal/schemes, the single owner of the strings.
const (
	KindPaper         = schemes.KindPaper
	KindFullTable     = schemes.KindFullTable
	KindAPCover       = schemes.KindAPCover
	KindLandmarkChain = schemes.KindLandmarkChain
	KindTZ            = schemes.KindTZ
)

func newScheme(net *Network, kind string, r sim.Router, t tableSizer) *Scheme {
	tracer := sim.NewEngine(net.g)
	tracer.Trace = true
	return &Scheme{net: net, kind: kind, router: r, engine: sim.NewEngine(net.g), tracer: tracer, table: t}
}

// Name identifies the scheme in tables.
func (s *Scheme) Name() string { return s.router.Name() }

// Kind returns the registry kind this scheme was built (or loaded)
// as, e.g. "paper" or "tz".
func (s *Scheme) Kind() string { return s.kind }

// MaxTableBits returns the largest per-node routing table.
func (s *Scheme) MaxTableBits() int64 { return int64(s.table.MaxTableBits()) }

// MeanTableBits returns the mean per-node routing table size.
func (s *Scheme) MeanTableBits() float64 { return s.table.MeanTableBits() }

// Route delivers a message between internal ids.
func (s *Scheme) Route(src, dst NodeID) (Result, error) {
	return s.RouteCtx(context.Background(), src, dst)
}

// RouteCtx is Route honoring cancellation: the context threads into
// the hop loop, so canceling it aborts a long route promptly with a
// wrapped context.Canceled (or DeadlineExceeded).
//
//crlint:hotpath
func (s *Scheme) RouteCtx(ctx context.Context, src, dst NodeID) (Result, error) {
	if int(src) >= s.net.N() || int(dst) >= s.net.N() || src < 0 || dst < 0 {
		return Result{}, fmt.Errorf("compactroute: invalid endpoint %d→%d", src, dst)
	}
	res, err := s.engine.RouteCtx(ctx, s.router, src, s.net.g.Name(dst))
	if err != nil {
		return Result{}, err
	}
	out := Result{
		Delivered:  res.Delivered,
		Cost:       res.Cost,
		Hops:       res.Hops,
		HeaderBits: int64(res.MaxHeaderBits),
	}
	out.ShortestCost, out.MetricKnown = s.net.shortest(src, dst)
	return out, nil
}

// RouteByName delivers a message between external names — the
// operation the name-independent model is about.
func (s *Scheme) RouteByName(srcName, dstName uint64) (Result, error) {
	return s.RouteByNameCtx(context.Background(), srcName, dstName)
}

// RouteByNameCtx is RouteByName honoring cancellation. An unknown
// source name errors with a wrapped ErrUnknownName; an unknown
// destination is searched for and reported as Delivered == false
// (that asymmetry is the name-independent model).
//
//crlint:hotpath
func (s *Scheme) RouteByNameCtx(ctx context.Context, srcName, dstName uint64) (Result, error) {
	src, ok := s.net.g.Lookup(srcName)
	if !ok {
		return Result{}, fmt.Errorf("compactroute: source name %#x: %w", srcName, ErrUnknownName)
	}
	res, err := s.engine.RouteCtx(ctx, s.router, src, dstName)
	if err != nil {
		return Result{}, err
	}
	out := Result{
		Delivered:  res.Delivered,
		Cost:       res.Cost,
		Hops:       res.Hops,
		HeaderBits: int64(res.MaxHeaderBits),
	}
	if dst, ok := s.net.g.Lookup(dstName); ok {
		out.ShortestCost, out.MetricKnown = s.net.shortest(src, dst)
	}
	return out, nil
}

// RoutePathByNameCtx is RouteByNameCtx with the traversed path
// returned as external names, source first (one entry for a
// self-route; a failed search ends wherever the scheme gave up). It
// runs on the scheme's tracing engine, which costs two allocations
// more than the untraced route on most routes (the path, sized once,
// and its names), and exists for layers that must inspect the walk:
// the serving tier's fault repair (serve.Repairer) holds each path
// against its down-link overlay.
func (s *Scheme) RoutePathByNameCtx(ctx context.Context, srcName, dstName uint64) (Result, []uint64, error) {
	src, ok := s.net.g.Lookup(srcName)
	if !ok {
		return Result{}, nil, fmt.Errorf("compactroute: source name %#x: %w", srcName, ErrUnknownName)
	}
	res, err := s.tracer.RouteCtx(ctx, s.router, src, dstName)
	if err != nil {
		return Result{}, nil, err
	}
	out := Result{
		Delivered:  res.Delivered,
		Cost:       res.Cost,
		Hops:       res.Hops,
		HeaderBits: int64(res.MaxHeaderBits),
	}
	if dst, ok := s.net.g.Lookup(dstName); ok {
		out.ShortestCost, out.MetricKnown = s.net.shortest(src, dst)
	}
	path := make([]uint64, len(res.Path))
	for i, id := range res.Path {
		path[i] = s.net.g.Name(id)
	}
	return out, path, nil
}

// AddLabeled registers a node by an arbitrary string label (hashed to
// its 64-bit routing name per §2.1's long-label generalization). Use
// on a builder before BuildNetwork.
func AddLabeled(b *GraphBuilder, label string) NodeID { return b.AddLabeled(label) }

// RouteByLabel delivers a message between string-labeled nodes.
func (s *Scheme) RouteByLabel(srcLabel, dstLabel string) (Result, error) {
	return s.RouteByLabelCtx(context.Background(), srcLabel, dstLabel)
}

// RouteByLabelCtx is RouteByLabel honoring cancellation. Unknown
// labels error with a wrapped ErrUnknownLabel.
func (s *Scheme) RouteByLabelCtx(ctx context.Context, srcLabel, dstLabel string) (Result, error) {
	src, ok := s.net.g.LookupLabel(srcLabel)
	if !ok {
		return Result{}, fmt.Errorf("compactroute: source label %q: %w", srcLabel, ErrUnknownLabel)
	}
	dst, ok := s.net.g.LookupLabel(dstLabel)
	if !ok {
		return Result{}, fmt.Errorf("compactroute: destination label %q: %w", dstLabel, ErrUnknownLabel)
	}
	return s.RouteCtx(ctx, src, dst)
}

// Save persists a built scheme to w in the kind-tagged versioned
// binary format of internal/codec (magic "CRSC", format v2). Only
// persistable kinds can be saved — the paper's scheme (everything the
// construction computed: routing tables, landmark and cover trees,
// the decomposition, storage accounting inputs) and the full-table
// baseline (the next-hop tables). Other kinds error with a wrapped
// ErrNotPersistable.
func Save(w io.Writer, s *Scheme) error {
	p, err := codec.PayloadFor(s.router)
	if err != nil {
		return fmt.Errorf("compactroute: saving scheme: %w", err)
	}
	return codec.EncodePayload(w, p)
}

// Load reads a scheme saved by Save — any persistable kind, v1 or v2
// streams — and rehydrates it into ready-to-route form without
// recomputing all-pairs shortest paths: the build-once/route-many
// entry point. The loaded network has no metric: RouteByName returns
// correct Cost and Hops, but ShortestCost is unknown (MetricKnown ==
// false, Stretch reports 1) until Network().EnsureMetric is called.
func Load(r io.Reader) (*Scheme, error) {
	p, err := codec.DecodePayload(r)
	if err != nil {
		return nil, err
	}
	switch p.Kind {
	case codec.KindPaper:
		c, err := core.FromSnapshot(p.Core)
		if err != nil {
			return nil, err
		}
		return newScheme(&Network{g: c.G()}, KindPaper, c, c), nil
	case codec.KindFullTable:
		f, err := baseline.FullTableFromSnapshot(p.Full)
		if err != nil {
			return nil, err
		}
		return newScheme(&Network{g: f.G()}, KindFullTable, f, f), nil
	default:
		return nil, fmt.Errorf("compactroute: loading kind %q: %w", p.Kind, ErrNotPersistable)
	}
}

// Network exposes the scheme's network (read-only use).
func (s *Scheme) Network() *Network { return s.net }

// SaveNetwork writes the network's graph in the text workload format
// (see internal/gio): replayable via LoadNetwork, cmd/routesim -graph,
// and cmd/graphgen.
func SaveNetwork(w io.Writer, net *Network) error { return gio.Write(w, net.g) }

// LoadNetwork reads a graph in the text workload format and computes
// its metric.
func LoadNetwork(r io.Reader) (*Network, error) {
	g, err := gio.Read(r)
	if err != nil {
		return nil, err
	}
	return WrapGraph(g), nil
}
