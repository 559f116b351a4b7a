package dynamic

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"compactroute/internal/graph"
	"compactroute/internal/routeerr"
	"compactroute/internal/schemes"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
)

// Version is one sealed topology snapshot: the graph at a mutation-log
// position plus the schemes built over it, all immutable once
// published. Lineage fields record where it came from — the parent
// version and the half-open mutation range (MutFrom, MutTo] replayed
// on top of it — and what the build cost, which is what the snapshot
// store persists alongside the scheme bytes.
type Version struct {
	// ID numbers versions from 0 (the base topology).
	ID uint64
	// Parent is the version this one was replayed from (== ID for the
	// base version, which has no parent).
	Parent uint64
	// MutFrom, MutTo delimit the applied mutation range (MutFrom,
	// MutTo] — MutTo is the log position this version seals.
	MutFrom, MutTo uint64
	// BuildWall is the background construction cost of this version
	// (replay + every scheme build), none of it on the serving path.
	BuildWall time.Duration

	// Aux is an opaque per-version attachment for embedding layers,
	// set in PreSwap and immutable once the version is published (the
	// facade hangs its ready-to-route scheme wrappers here, so a
	// request resolves everything it needs with the one atomic load
	// Swapper.Current costs).
	Aux any

	graph   *graph.Graph
	engine  *sim.Engine
	schemes map[string]schemes.Scheme
	kinds   []string       // the keys of schemes, sorted
	metric  []*sssp.Result // the rows the schemes were built from
}

// Graph returns the sealed topology.
func (v *Version) Graph() *graph.Graph { return v.graph }

// Scheme returns the built scheme of one kind, or nil.
func (v *Version) Scheme(kind string) schemes.Scheme { return v.schemes[kind] }

// Metric returns the all-pairs shortest paths the version's schemes
// were built from, one row per node. A paper scheme of the version
// holds these same rows. Read them, do not modify them.
func (v *Version) Metric() []*sssp.Result { return v.metric }

// Kinds returns the kinds built into this version, sorted. The slice
// is the version's own, sorted once when it was built: read it, do not
// modify it.
func (v *Version) Kinds() []string { return v.kinds }

// Route routes one message on this version's scheme of the given
// kind, entirely on this version — the caller owns the version
// resolution (Swapper.Current), so a concurrent swap cannot move the
// route between topologies mid-walk. An unknown source name wraps
// routeerr.ErrUnknownName; an unknown destination is searched for and
// reported as non-delivery (the name-independent model).
func (v *Version) Route(ctx context.Context, kind string, srcName, dstName uint64) (sim.Result, error) {
	s, ok := v.schemes[kind]
	if !ok {
		return sim.Result{}, fmt.Errorf("dynamic: version %d: %w %q", v.ID, routeerr.ErrUnknownKind, kind)
	}
	src, ok := v.graph.Lookup(srcName)
	if !ok {
		return sim.Result{}, fmt.Errorf("dynamic: version %d: source name %#x: %w", v.ID, srcName, routeerr.ErrUnknownName)
	}
	return v.engine.RouteCtx(ctx, s, src, dstName)
}

// TopologyOptions configures NewTopology.
type TopologyOptions struct {
	// Configs names the scheme kinds every version builds, one per
	// entry. At least one is required; kinds must be distinct.
	Configs []schemes.Config
	// Metric, when set, is the all-pairs shortest paths of the graph
	// NewTopology seals (sssp.AllPairs output, one row per node).
	// Version 0 builds from these rows instead of computing its own,
	// and a kind that keeps the metric (paper) shares them. The
	// topology drops its reference once version 0 is built.
	Metric []*sssp.Result
	// PreSwap, when set, runs after a candidate version is fully built
	// and before it is swapped in. It is the hook for anything heavy
	// that must complete before the version serves — persisting the
	// snapshot (Store.Save). An error aborts
	// the rebuild; the old version keeps serving and the mutation
	// range stays pending.
	PreSwap func(*Version) error
}

// Topology is the dynamic-topology orchestrator: one mutation log, one
// swapper, and a serialized rebuild path connecting them. Apply is
// cheap and concurrent-safe; Rebuild does all expensive work in the
// calling goroutine (daemons run it in the background) and publishes
// the result with a sub-millisecond swap.
type Topology struct {
	opts    TopologyOptions
	log     *Log
	swapper *Swapper

	rebuildMu sync.Mutex // one rebuild/stage/commit at a time
	// staged is the built-but-uncommitted version. It is written only
	// under rebuildMu but read without it, so Staged never waits out a
	// build in progress.
	staged atomic.Pointer[Version]
}

// NewTopology seals g as version 0, builds its schemes synchronously
// in the calling goroutine — from opts.Metric when set, else from rows
// it computes — and starts the mutation log. The context cancels the
// version-0 build (builds at scale take seconds to minutes;
// construction should not outlive its caller).
func NewTopology(ctx context.Context, g *graph.Graph, opts TopologyOptions) (*Topology, error) {
	if len(opts.Configs) == 0 {
		return nil, fmt.Errorf("dynamic: NewTopology needs at least one scheme config")
	}
	seen := make(map[string]bool, len(opts.Configs))
	for _, cfg := range opts.Configs {
		if seen[cfg.Kind] {
			return nil, fmt.Errorf("dynamic: duplicate kind %q in configs", cfg.Kind)
		}
		seen[cfg.Kind] = true
	}
	rows := opts.Metric
	if rows != nil && len(rows) != g.N() {
		return nil, fmt.Errorf("dynamic: version 0 metric has %d rows for %d nodes", len(rows), g.N())
	}
	opts.Metric = nil // version 0 keeps the rows it uses, and only while it lives
	t := &Topology{opts: opts, log: NewLog(g)}
	v0, err := t.build(ctx, g, rows, 0, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	if opts.PreSwap != nil {
		if err := opts.PreSwap(v0); err != nil {
			return nil, fmt.Errorf("dynamic: version 0 pre-swap: %w", err)
		}
	}
	t.swapper = NewSwapper(v0)
	return t, nil
}

// build constructs one version over g from the given shortest-path
// rows, or, when rows is nil, from rows it computes once across all
// cores. Every kind builds from the same rows, and the version keeps
// them as its metric.
func (t *Topology) build(ctx context.Context, g *graph.Graph, rows []*sssp.Result, id, parent, mutFrom, mutTo uint64) (*Version, error) {
	t0 := time.Now()
	if rows == nil {
		var err error
		if rows, err = sssp.AllPairsParallelCtx(ctx, g, 0); err != nil {
			return nil, fmt.Errorf("dynamic: version %d metric: %w", id, err)
		}
	}
	v := &Version{
		ID:      id,
		Parent:  parent,
		MutFrom: mutFrom,
		MutTo:   mutTo,
		graph:   g,
		engine:  sim.NewEngine(g),
		schemes: make(map[string]schemes.Scheme, len(t.opts.Configs)),
		kinds:   make([]string, 0, len(t.opts.Configs)),
		metric:  rows,
	}
	for _, cfg := range t.opts.Configs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dynamic: building version %d: %w", id, err)
		}
		s, err := schemes.Build(g, rows, cfg)
		if err != nil {
			return nil, fmt.Errorf("dynamic: building version %d kind %q: %w", id, cfg.Kind, err)
		}
		v.schemes[cfg.Kind] = s
		v.kinds = append(v.kinds, cfg.Kind)
	}
	sort.Strings(v.kinds)
	v.BuildWall = time.Since(t0)
	return v, nil
}

// Log exposes the mutation log (Append, Len, Slice).
func (t *Topology) Log() *Log { return t.log }

// Swapper exposes the serving handle (Current, OnSwap, pause stats).
func (t *Topology) Swapper() *Swapper { return t.swapper }

// Apply validates and appends mutations to the log; the served
// topology is unchanged until the next Rebuild. It returns the
// sequence number of the last accepted mutation.
func (t *Topology) Apply(ms ...Mutation) (uint64, error) { return t.log.Append(ms...) }

// Current returns the serving version.
func (t *Topology) Current() *Version { return t.swapper.Current() }

// Pending returns how many accepted mutations the serving version has
// not yet absorbed.
func (t *Topology) Pending() uint64 {
	// Order matters under concurrency: reading the version first could
	// miss a swap and report phantom pending work, but reading the log
	// first only ever undercounts mutations that arrived mid-call.
	n := t.log.Len()
	cur := t.Current()
	if n <= cur.MutTo {
		return 0
	}
	return n - cur.MutTo
}

// Rebuild seals the log at its current position, replays the pending
// range onto the serving graph in the background, computes its metric
// and builds every configured scheme from it, runs PreSwap, and
// hot-swaps the result in. Rebuilds are serialized; concurrent callers
// queue. With nothing pending the serving version is returned
// unchanged (no swap, zero pause).
//
// On any error — replay, build, canceled ctx, PreSwap — the old
// version keeps serving untouched and the mutation range stays
// pending for the next attempt.
func (t *Topology) Rebuild(ctx context.Context) (v *Version, pause time.Duration, err error) {
	t.rebuildMu.Lock()
	defer t.rebuildMu.Unlock()
	next, err := t.stageLocked(ctx)
	if err != nil {
		return nil, 0, err
	}
	if next == t.Current() {
		return next, 0, nil
	}
	t.staged.Store(nil)
	return next, t.swapper.Swap(next), nil
}

// Stage is the first half of a two-phase rebuild: it seals the log,
// replays the pending range, builds every configured kind, and runs
// PreSwap — all the expensive work — but does NOT publish the result.
// The staged version waits for Commit; until then the old version
// keeps serving. With nothing pending the serving version is returned
// (and committing its ID is a no-op). Calling Stage again re-stages
// against whatever is pending by then — a previously staged version at
// the same log position is reused, a stale one is discarded and
// rebuilt. A plain Rebuild also discards any staged version.
//
// The split exists for coordinated cluster cut-overs (internal/
// cluster): every shard stages, the coordinator checks the staged
// versions agree, and only then do all shards Commit — so the cluster
// never serves two topologies longer than the commit fan-out takes.
func (t *Topology) Stage(ctx context.Context) (*Version, error) {
	t.rebuildMu.Lock()
	defer t.rebuildMu.Unlock()
	return t.stageLocked(ctx)
}

// stageLocked builds (or reuses) the staged version under rebuildMu.
func (t *Topology) stageLocked(ctx context.Context) (*Version, error) {
	cur := t.Current()
	to := t.log.Len()
	if to == cur.MutTo {
		t.staged.Store(nil) // nothing pending: any staged version is obsolete
		return cur, nil
	}
	if s := t.staged.Load(); s != nil && s.Parent == cur.ID && s.MutTo == to {
		return s, nil // already staged at exactly this log position
	}
	muts := t.log.Slice(cur.MutTo, to)
	g, err := Replay(cur.graph, muts)
	if err != nil {
		return nil, err
	}
	next, err := t.build(ctx, g, nil, cur.ID+1, cur.ID, cur.MutTo, to)
	if err != nil {
		return nil, err
	}
	if t.opts.PreSwap != nil {
		if err := t.opts.PreSwap(next); err != nil {
			return nil, fmt.Errorf("dynamic: version %d pre-swap: %w", next.ID, err)
		}
	}
	t.staged.Store(next)
	return next, nil
}

// Commit is the second half of a two-phase rebuild: it publishes the
// staged version — if and only if its ID is the one the caller names.
// Committing the ID of the version already serving is an idempotent
// no-op (zero pause), so a coordinator may safely retry. Anything else
// wraps routeerr.ErrVersionSkew and leaves serving untouched:
// committing blind would put this node on a topology its peers never
// agreed on.
func (t *Topology) Commit(id uint64) (*Version, time.Duration, error) {
	t.rebuildMu.Lock()
	defer t.rebuildMu.Unlock()
	cur := t.Current()
	if cur.ID == id {
		return cur, 0, nil
	}
	v := t.staged.Load()
	if v == nil {
		return nil, 0, fmt.Errorf("dynamic: commit version %d: nothing staged (serving %d): %w",
			id, cur.ID, routeerr.ErrVersionSkew)
	}
	if v.ID != id {
		return nil, 0, fmt.Errorf("dynamic: commit version %d: staged version is %d: %w",
			id, v.ID, routeerr.ErrVersionSkew)
	}
	t.staged.Store(nil)
	return v, t.swapper.Swap(v), nil
}

// Staged returns the staged-but-uncommitted version, or nil. It takes
// no lock: health and stats reads call it, and must answer while a
// stage or rebuild holds the build path for seconds.
func (t *Topology) Staged() *Version { return t.staged.Load() }
