package compactroute

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"compactroute/internal/dynamic"
	"compactroute/internal/routeerr"
)

// Mutation is one topology change in the dynamic mutation log,
// addressed by external node names. Construct with the Mut* helpers
// or as a literal with the Op constants; see internal/dynamic for the
// trace and JSON wire formats.
type Mutation = dynamic.Mutation

// MutationOp enumerates the mutation operations.
type MutationOp = dynamic.Op

// The mutation operations, re-exported from internal/dynamic. The
// OpFail*/OpRecover* events are transient: they mark elements down or
// up in the fault overlay the serving tier routes around, and never
// change the permanent topology a rebuild seals (DESIGN.md §10).
const (
	OpAddNode     = dynamic.OpAddNode
	OpAddEdge     = dynamic.OpAddEdge
	OpRemoveEdge  = dynamic.OpRemoveEdge
	OpSetWeight   = dynamic.OpSetWeight
	OpFailEdge    = dynamic.OpFailEdge
	OpRecoverEdge = dynamic.OpRecoverEdge
	OpFailNode    = dynamic.OpFailNode
	OpRecoverNode = dynamic.OpRecoverNode
)

// MutAddNode returns an anchored add-node mutation: name joins the
// topology linked to anchor by one edge of weight w, atomically —
// every rebuild boundary sees it routable.
func MutAddNode(name, anchor uint64, w float64) Mutation {
	return Mutation{Op: OpAddNode, Name: name, V: anchor, W: w}
}

// MutAddEdge returns an add-edge mutation between existing nodes.
func MutAddEdge(u, v uint64, w float64) Mutation {
	return Mutation{Op: OpAddEdge, U: u, V: v, W: w}
}

// MutRemoveEdge returns a remove-edge mutation (every parallel edge
// of the pair).
func MutRemoveEdge(u, v uint64) Mutation {
	return Mutation{Op: OpRemoveEdge, U: u, V: v}
}

// MutSetWeight returns a set-weight mutation (every parallel edge of
// the pair).
func MutSetWeight(u, v uint64, w float64) Mutation {
	return Mutation{Op: OpSetWeight, U: u, V: v, W: w}
}

// MutFailEdge returns a transient link-failure event: every edge of
// the pair is down until a MutRecoverEdge (or a permanent removal).
func MutFailEdge(u, v uint64) Mutation {
	return Mutation{Op: OpFailEdge, U: u, V: v}
}

// MutRecoverEdge returns the recovery event for a failed pair.
func MutRecoverEdge(u, v uint64) Mutation {
	return Mutation{Op: OpRecoverEdge, U: u, V: v}
}

// MutFailNode returns a transient node-failure event: the node and
// every edge at it are down until a MutRecoverNode.
func MutFailNode(name uint64) Mutation {
	return Mutation{Op: OpFailNode, Name: name}
}

// MutRecoverNode returns the recovery event for a failed node.
func MutRecoverNode(name uint64) Mutation {
	return Mutation{Op: OpRecoverNode, Name: name}
}

// GenerateMutations produces a deterministic, seedable churn trace of
// k mutations valid against the network's graph: every mutation
// replays and no removal ever disconnects the topology (see
// cmd/graphgen -mutations).
func GenerateMutations(net *Network, k int, seed uint64) ([]Mutation, error) {
	return dynamic.GenerateTrace(net.g, k, seed)
}

// FaultProfile weighs the op mix of GenerateFaultMutations: the four
// permanent churn ops plus transient FailEdge/FailNode events and a
// Recover weight that brings a random outstanding fault back up.
// Weights are relative; zero disables an op.
type FaultProfile = dynamic.TraceProfile

// DefaultFaultProfile mirrors GenerateMutations' churn mix with ~30%
// transient failure/recovery events layered in.
func DefaultFaultProfile() FaultProfile { return dynamic.DefaultTraceProfile() }

// GenerateFaultMutations produces a deterministic, seedable trace of k
// mutations mixing permanent churn with transient failure/recovery
// events (cmd/graphgen -failures). Safety contract: every mutation
// replays, and the live subgraph — up nodes over up edges — stays
// connected after every event. The second result quiesces the tail:
// appending it recovers every outstanding fault, returning the overlay
// to the state a cold build of the final topology assumes.
func GenerateFaultMutations(net *Network, k int, seed uint64, p FaultProfile) (trace, recovery []Mutation, err error) {
	muts, fs, err := dynamic.GenerateFaultTrace(net.g, k, seed, p)
	if err != nil {
		return nil, nil, err
	}
	return muts, fs.RecoveryMutations(), nil
}

// WriteMutations emits a mutation trace in the text format
// cmd/graphgen -mutations writes.
func WriteMutations(w io.Writer, muts []Mutation) error { return dynamic.WriteTrace(w, muts) }

// ReadMutations parses a mutation trace in the text format.
func ReadMutations(r io.Reader) ([]Mutation, error) { return dynamic.ReadTrace(r) }

// ReplayNetwork applies a mutation trace to a network's graph and
// returns the resulting network (metric computed) — the cold topology
// a dynamic rebuild of the same mutation range converges to, byte-
// identical in structure whether the range was replayed in one shot
// or across many rebuilds.
func ReplayNetwork(net *Network, muts []Mutation) (*Network, error) {
	g, err := dynamic.Replay(net.g, muts)
	if err != nil {
		return nil, err
	}
	return WrapGraph(g), nil
}

// VersionInfo describes one sealed topology version: its lineage (the
// parent version and the half-open mutation range (MutFrom, MutTo]
// replayed on top of it) and the background build cost.
type VersionInfo struct {
	ID        uint64        `json:"id"`
	Parent    uint64        `json:"parent"`
	MutFrom   uint64        `json:"mutFrom"`
	MutTo     uint64        `json:"mutTo"`
	BuildWall time.Duration `json:"buildWallNs"`
	// Kinds lists the kinds built into the version, sorted. Every
	// VersionInfo of one version shares the slice: read it, do not
	// modify it.
	Kinds []string `json:"kinds"`
}

// DynamicOptions configures NewDynamic.
type DynamicOptions struct {
	// Configs names the scheme kinds every version builds — one
	// Config per kind, at least one, kinds distinct. Each rebuild
	// computes the replayed graph's metric once, across all cores and
	// in the background, and builds all of them from it; version 0
	// builds from the network's metric. The version's network keeps
	// the rows, so routed results carry true stretch, and the paper
	// kind shares them rather than holding a second copy.
	Configs []Config
	// SnapshotDir, when set, persists every version before it swaps
	// in: the sealed graph, each persistable kind with its lineage
	// (codec v2), and a manifest (see internal/dynamic.Store).
	SnapshotDir string
}

// Dynamic is a live topology serving one scheme set per sealed
// version: mutations accumulate in an append-only log (Apply),
// rebuilds replay them and construct fresh schemes in the background
// (Rebuild), and a hot swap publishes the result — in-flight routes
// finish on the version they started on, new requests see the new
// one, and swap hooks (OnSwap) run within the sub-millisecond pause.
// See DESIGN.md §7.
type Dynamic struct {
	opts DynamicOptions
	top  *dynamic.Topology
	// baseNet is the network NewDynamic was given, set only while
	// version 0 builds: from then on version 0 holds it, so it is
	// released with version 0.
	baseNet *Network
	store   *dynamic.Store

	watchMu  sync.Mutex
	watchers map[int]chan VersionInfo
	watchSeq int
}

// dynVersion is the per-version facade state hung on the internal
// version's Aux: the shared Network and the ready-to-route wrappers.
type dynVersion struct {
	net     *Network
	schemes map[string]*Scheme
}

// NewDynamic seals net's graph as version 0, builds its schemes
// synchronously, and returns the live handle. The network's metric is
// version 0's build input and serves its stretch reporting; a network
// without one (WrapGraphLazy) computes it first and keeps it. Every
// later version computes its own rows once and builds from them. The
// handle keeps no reference to net: it lives as long as version 0
// does.
func NewDynamic(net *Network, o DynamicOptions) (*Dynamic, error) {
	return NewDynamicCtx(context.Background(), net, o)
}

// NewDynamicCtx is NewDynamic honoring cancellation: the synchronous
// version-0 build (and a lazy network's metric sweep) aborts when ctx
// does, returning the wrapped context error instead of a handle.
func NewDynamicCtx(ctx context.Context, net *Network, o DynamicOptions) (*Dynamic, error) {
	d := &Dynamic{opts: o, baseNet: net, watchers: make(map[int]chan VersionInfo)}
	if o.SnapshotDir != "" {
		st, err := dynamic.NewStore(o.SnapshotDir)
		if err != nil {
			return nil, err
		}
		d.store = st
	}
	rows, err := net.metricCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("compactroute: version 0 metric: %w", err)
	}
	top, err := dynamic.NewTopology(ctx, net.g, dynamic.TopologyOptions{
		Configs: o.Configs,
		Metric:  rows,
		PreSwap: d.preSwap,
	})
	if err != nil {
		return nil, err
	}
	d.top = top
	// Version 0 holds the network from here on; the handle must not, so
	// the first swap releases its graph and metric.
	d.baseNet = nil
	// Watchers are notified from inside the swap itself (the hooks run
	// under the serialized rebuild path), so events are exactly-once
	// and arrive in version order even with concurrent Rebuild
	// callers; the sends are non-blocking and cost nanoseconds.
	top.Swapper().OnSwap(func(v *dynamic.Version) { d.notify(info(v)) })
	return d, nil
}

// notify fans a swapped version's lineage out to the watchers without
// ever blocking the swap.
func (d *Dynamic) notify(vi VersionInfo) {
	d.watchMu.Lock()
	for _, ch := range d.watchers {
		select {
		case ch <- vi:
		default: // a slow watcher drops updates, never blocks a swap
		}
	}
	d.watchMu.Unlock()
}

// preSwap readies a freshly built version for serving: the facade
// wrappers, the metric the version was built from, and the optional
// snapshot — all the expensive work, strictly before the swap.
func (d *Dynamic) preSwap(v *dynamic.Version) error {
	// The network reports stretch from the rows the schemes were built
	// from: version 0's are the base network's own.
	net := d.baseNet
	if net == nil {
		net = adoptNetwork(v.Graph(), v.Metric())
	}
	ds := &dynVersion{net: net, schemes: make(map[string]*Scheme, len(d.opts.Configs))}
	for _, kind := range v.Kinds() {
		s := v.Scheme(kind)
		ds.schemes[kind] = newScheme(net, kind, s, s)
	}
	if d.store != nil {
		if err := d.store.Save(v); err != nil {
			return err
		}
	}
	v.Aux = ds
	return nil
}

// info renders a version's lineage.
func info(v *dynamic.Version) VersionInfo {
	return VersionInfo{
		ID: v.ID, Parent: v.Parent, MutFrom: v.MutFrom, MutTo: v.MutTo,
		BuildWall: v.BuildWall, Kinds: v.Kinds(),
	}
}

// Apply validates and appends mutations to the log atomically (all or
// none), returning the sequence number of the last one. The served
// topology is unchanged until the next Rebuild.
func (d *Dynamic) Apply(ms ...Mutation) (uint64, error) { return d.top.Apply(ms...) }

// Pending returns how many accepted mutations the serving version has
// not yet absorbed.
func (d *Dynamic) Pending() uint64 { return d.top.Pending() }

// Version returns the serving version's lineage.
func (d *Dynamic) Version() VersionInfo { return info(d.top.Current()) }

// Rebuild seals the log, replays the pending mutations, rebuilds
// every configured kind in the background, and hot-swaps the new
// version in (running the OnSwap hooks). Rebuilds
// serialize; with nothing pending the current version is returned
// unchanged. On error the old version keeps serving and the mutation
// range stays pending.
func (d *Dynamic) Rebuild(ctx context.Context) (VersionInfo, error) {
	v, _, err := d.top.Rebuild(ctx)
	if err != nil {
		return VersionInfo{}, err
	}
	return info(v), nil
}

// Stage runs the first half of a two-phase rebuild: replay, build,
// metric, snapshot — everything expensive — without publishing the
// result. The returned version waits for SwapTo; the old version keeps
// serving. With nothing pending the serving version is returned, and
// SwapTo of its ID is a no-op. Coordinated cluster cut-overs are built
// on this split: every shard stages, the coordinator verifies the
// staged IDs agree, then all shards SwapTo the same version.
func (d *Dynamic) Stage(ctx context.Context) (VersionInfo, error) {
	v, err := d.top.Stage(ctx)
	if err != nil {
		return VersionInfo{}, err
	}
	return info(v), nil
}

// SwapTo publishes the staged version named by id — the second half of
// a two-phase rebuild. Naming the serving version is an idempotent
// no-op; naming anything else wraps ErrVersionSkew and changes
// nothing.
func (d *Dynamic) SwapTo(id uint64) (VersionInfo, error) {
	v, _, err := d.top.Commit(id)
	if err != nil {
		return VersionInfo{}, err
	}
	return info(v), nil
}

// Staged reports the staged-but-uncommitted version, if any.
func (d *Dynamic) Staged() (VersionInfo, bool) {
	v := d.top.Staged()
	if v == nil {
		return VersionInfo{}, false
	}
	return info(v), true
}

// OnSwap registers a hook run synchronously inside every swap, after
// the new version is published (the serving tier journals the swap
// there). Hooks must be fast: they are part of the measured swap
// pause.
func (d *Dynamic) OnSwap(fn func(VersionInfo)) {
	d.top.Swapper().OnSwap(func(v *dynamic.Version) { fn(info(v)) })
}

// Watch returns a channel receiving the lineage of every version
// swapped in after the call, and a stop function releasing it. A
// watcher that falls behind misses updates (sends never block a
// swap); poll Version for the authoritative current state.
func (d *Dynamic) Watch(buf int) (<-chan VersionInfo, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan VersionInfo, buf)
	d.watchMu.Lock()
	d.watchSeq++
	id := d.watchSeq
	d.watchers[id] = ch
	d.watchMu.Unlock()
	return ch, func() {
		d.watchMu.Lock()
		delete(d.watchers, id)
		d.watchMu.Unlock()
	}
}

// SwapStats reports how many swaps have been published and the last
// and largest serving pause (the pointer store plus the OnSwap
// hooks — the only serving-visible cost of a rebuild).
func (d *Dynamic) SwapStats() (swaps uint64, lastPause, maxPause time.Duration) {
	sw := d.top.Swapper()
	return sw.Swaps(), sw.LastPause(), sw.MaxPause()
}

// current resolves the serving version's facade state: one atomic
// load, after which everything — graph, engine, schemes, metric — is
// immutable, so a concurrent swap can never tear a request across two
// versions.
func (d *Dynamic) current() (*dynamic.Version, *dynVersion) {
	v := d.top.Current()
	return v, v.Aux.(*dynVersion)
}

// Scheme returns the serving version's scheme of one kind (nil if the
// kind is not configured). The returned scheme stays valid — bound to
// its version — across later swaps.
func (d *Dynamic) Scheme(kind string) *Scheme {
	_, ds := d.current()
	return ds.schemes[kind]
}

// Network returns the serving version's network.
func (d *Dynamic) Network() *Network {
	_, ds := d.current()
	return ds.net
}

// RouteByNameCtx routes one message on the serving version's scheme
// of the given kind. The version is resolved once, at admission:
// in-flight routes finish on their version when a swap lands
// mid-walk. An unconfigured kind wraps ErrUnknownKind; source-name
// and delivery semantics follow Scheme.RouteByNameCtx.
func (d *Dynamic) RouteByNameCtx(ctx context.Context, kind string, srcName, dstName uint64) (Result, error) {
	v, ds := d.current()
	s, ok := ds.schemes[kind]
	if !ok {
		return Result{}, fmt.Errorf("compactroute: dynamic version %d: %w %q", v.ID, routeerr.ErrUnknownKind, kind)
	}
	return s.RouteByNameCtx(ctx, srcName, dstName)
}

// RoutePathByNameCtx is RouteByNameCtx with the traversed path
// returned as external names (Scheme.RoutePathByNameCtx on the
// serving version) — the shape serve.Repairer wraps to hold each walk
// against the transient fault overlay.
func (d *Dynamic) RoutePathByNameCtx(ctx context.Context, kind string, srcName, dstName uint64) (Result, []uint64, error) {
	v, ds := d.current()
	s, ok := ds.schemes[kind]
	if !ok {
		return Result{}, nil, fmt.Errorf("compactroute: dynamic version %d: %w %q", v.ID, routeerr.ErrUnknownKind, kind)
	}
	return s.RoutePathByNameCtx(ctx, srcName, dstName)
}
