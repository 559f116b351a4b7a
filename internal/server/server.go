// Package server is the reusable serving tier over one routing
// scheme — the daemon logic cmd/routed used to inline, extracted so a
// shard of a cluster, a test, or an embedding program can run the same
// surface without a process boundary.
//
// A Server wraps either a STATIC scheme (loaded from a file persisted
// by compactroute.Save) or a DYNAMIC one (a registry kind served
// through compactroute.Dynamic: mutate → background rebuild → hot
// swap). Queries run on a bounded worker pool (internal/serve), and
// every query walks the scheme: the pool keeps no answers. The HTTP
// surface is versioned under /v1:
//
//	GET  /v1/route    route between external names (+ live version)
//	GET  /v1/healthz  liveness + scheme identity + live version
//	GET  /v1/stats    worker pool and swap counters
//	POST /v1/mutate   append topology mutations (dynamic mode)
//	POST /v1/rebuild  rebuild + hot-swap in the background
//	                  (?wait=1 blocks; ?stage=1 builds WITHOUT swapping)
//	POST /v1/swap     commit a staged version by ID (two-phase cut-over)
//
// Error responses follow the typed taxonomy via errors.Is (StatusFor):
// 422 for names the caller invented, 503 for saturation/cancellation
// (with Retry-After), 409 for mutating a static scheme or committing a
// version that is not staged, 500 for anything that would be a scheme
// invariant violation.
//
// # Lifecycle
//
// New builds or loads the scheme and assembles the pool and routes.
// Start launches the background rebuild worker (dynamic mode; a no-op
// otherwise) — the async POST /v1/rebuild flow and the RebuildAfter
// auto-trigger need it. Drain flips the server into lame-duck mode:
// every new request (health checks included, so load balancers pull
// the node) answers 503 + Retry-After while in-flight requests finish.
// Close stops the background worker; it does not wait for in-flight
// HTTP requests — Drain first, or use http.Server.Shutdown.
package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compactroute"
	"compactroute/internal/obs"
	"compactroute/internal/serve"
)

// Config configures New. Scheme is required: a registry kind (built,
// served dynamically) or a path to a scheme file (loaded, static).
type Config struct {
	// Scheme names a registry kind (compactroute.Kinds) or a scheme
	// file written by compactroute.Save; kinds win, so a file named
	// like a kind needs a path separator ("./tz").
	Scheme string

	// GraphFile builds a kind over this topology file (gio text
	// format) instead of generating one. Shards of a cluster MUST
	// share a graph file (or the generation parameters below): the
	// coordinated cut-over assumes every shard builds byte-identical
	// versions.
	GraphFile string
	// K is the trade-off parameter when building a kind (0: 3).
	K int
	// N is the node count for the generated topology (0: 512).
	N int
	// P is the gnp edge probability for the generated topology
	// (0: 8/n).
	P float64
	// Seed drives generation and construction (0 is a valid seed).
	Seed uint64
	// SFactor is the landmark S-set constant for kind paper (0: 0.25).
	SFactor float64

	// Metric computes a scheme file's shortest-path metric at start-up
	// (one APSP), so its responses carry true stretch. A kind-built
	// scheme needs no flag for that: every version computes its metric
	// once, builds from it and keeps it.
	Metric bool

	// Workers bounds concurrent route computations (0: GOMAXPROCS).
	Workers int

	// BestOfBoth routes src→dst and dst→src concurrently and serves
	// the cheaper usable direction — the yggdrasil treesim mitigation
	// for transient loss (dynamic mode; see serve.RepairOptions).
	BestOfBoth bool
	// DampPenalty enables flap damping: the starting cost penalty per
	// recently failed element on a path, decaying with DampHalfLife
	// (dynamic mode; 0 disables).
	DampPenalty float64
	// DampHalfLife is the damping decay half-life (0: 30s).
	DampHalfLife time.Duration

	// RebuildAfter triggers a background rebuild automatically once
	// this many mutations are pending (0: POST /v1/rebuild only).
	// Needs Start.
	RebuildAfter int
	// SnapshotDir persists every topology version (graph, persistable
	// schemes with lineage, manifest); empty disables.
	SnapshotDir string

	// TraceSample traces 1 in N requests (0: 64; negative disables
	// sampling — propagated X-Compactroute-Trace IDs are still
	// honored, so a front-door-sampled request traces here too).
	TraceSample int
	// TraceRing is the trace ring-buffer capacity (0: 1024).
	TraceRing int
	// SlowLog receives the slow-query log as JSON lines (nil
	// disables): slow, refused, and divergent requests with their
	// trace IDs.
	SlowLog io.Writer
	// SlowThreshold gates the slow-query log (0: 100ms).
	SlowThreshold time.Duration

	// Logf receives operational log lines (nil: log.Printf).
	Logf func(format string, args ...any)
}

// rebuildReply carries one rebuild outcome back to a waiting caller.
type rebuildReply struct {
	v   compactroute.VersionInfo
	err error
}

// Server is the serving tier over one scheme: pool, HTTP surface,
// background rebuild worker, and drain/close lifecycle. Construct with
// New; all methods are safe for concurrent use.
type Server struct {
	cfg    Config
	logf   func(string, ...any)
	scheme *compactroute.Scheme  // static mode only
	dyn    *compactroute.Dynamic // dynamic mode only
	kind   string                // served kind in dynamic mode
	repair *serve.Repairer       // fault-aware routing layer (dynamic mode only)
	pool   *serve.Pool
	mux    *http.ServeMux

	// muteMu serializes Mutate's append + fault fan-in, so the repair
	// layer's overlay always reflects the log's event order (two racing
	// fail/recover batches for one element must not apply their
	// overlay updates in the opposite order of their log positions).
	muteMu sync.Mutex

	tracer  *obs.Tracer
	metrics *obs.Metrics
	journal *obs.Journal
	slow    *obs.SlowLog

	rebuildReq chan chan rebuildReply
	started    sync.Once
	closed     sync.Once
	done       chan struct{}
	loopDone   chan struct{}
	loopCancel context.CancelFunc // set by Start, called by Close

	draining atomic.Bool
	inflight atomic.Int64
}

// New resolves cfg.Scheme — registry kinds build and serve
// dynamically, anything else loads as a static scheme file — and
// assembles the serving tier. Call Start to arm the background rebuild
// worker and Close when done.
func New(cfg Config) (*Server, error) {
	if cfg.Scheme == "" {
		return nil, fmt.Errorf("server: Config.Scheme is required (a kind: %s — or a scheme file)",
			strings.Join(compactroute.Kinds(), ", "))
	}
	s := &Server{
		cfg:      cfg,
		logf:     cfg.Logf,
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	if s.logf == nil {
		s.logf = log.Printf
	}
	s.initObs(cfg)
	start := time.Now()
	if _, isKind := compactroute.LookupKind(cfg.Scheme); isKind {
		if err := s.initDynamic(cfg); err != nil {
			return nil, err
		}
		sc := s.currentScheme()
		s.logf("server: built %s dynamically (%d nodes, %d edges, max table %d bits/node) in %v",
			sc.Name(), sc.Network().N(), sc.Network().Graph().M(), sc.MaxTableBits(),
			time.Since(start).Round(time.Millisecond))
	} else {
		if err := s.initStatic(cfg); err != nil {
			return nil, err
		}
		sc := s.scheme
		s.logf("server: loaded %s (%d nodes, %d edges, max table %d bits/node) in %v",
			sc.Name(), sc.Network().N(), sc.Network().Graph().M(), sc.MaxTableBits(),
			time.Since(start).Round(time.Millisecond))
	}
	return s, nil
}

// initObs assembles the observability sinks before either init path
// builds the routes (the HTTP middleware closes over them).
func (s *Server) initObs(cfg Config) {
	sample := cfg.TraceSample
	switch {
	case sample == 0:
		sample = 64
	case sample < 0:
		sample = 0
	}
	s.tracer = obs.NewTracer(cfg.TraceRing, sample)
	s.metrics = obs.NewMetrics()
	s.journal = obs.NewJournal(256)
	s.slow = obs.NewSlowLog(cfg.SlowLog, cfg.SlowThreshold)
}

// initDynamic builds cfg.Scheme as a registry kind and serves it
// through a compactroute.Dynamic handle.
func (s *Server) initDynamic(cfg Config) error {
	net, err := BuildNetwork(cfg)
	if err != nil {
		return err
	}
	k := cfg.K
	if k == 0 {
		k = 3
	}
	sfactor := cfg.SFactor
	if sfactor == 0 {
		sfactor = 0.25
	}
	dyn, err := compactroute.NewDynamic(net, compactroute.DynamicOptions{
		Configs:     []compactroute.Config{{Kind: cfg.Scheme, K: k, Seed: cfg.Seed, SFactor: sfactor}},
		SnapshotDir: cfg.SnapshotDir,
	})
	if err != nil {
		return err
	}
	s.dyn = dyn
	s.kind = cfg.Scheme
	s.rebuildReq = make(chan chan rebuildReply, 1)
	// Dynamic routes go through the repair layer: every walk is held
	// against the transient fault overlay (a dead link is dead the
	// moment its failure event is accepted, not at the next rebuild),
	// with best-of-both-directions and flap damping as configured.
	// Both walks record the same scheme span.
	s.repair = serve.NewRepairer(func(ctx context.Context, src, dst uint64) (compactroute.Result, []uint64, error) {
		walk := time.Now()
		res, path, err := dyn.RoutePathByNameCtx(ctx, s.kind, src, dst)
		if err == nil {
			obs.SpanN(ctx, "scheme", "walk", s.kind, walk, int64(res.Hops))
		}
		return res, path, err
	}, func(ctx context.Context, src, dst uint64) (compactroute.Result, error) {
		walk := time.Now()
		res, err := dyn.RouteByNameCtx(ctx, s.kind, src, dst)
		if err == nil {
			obs.SpanN(ctx, "scheme", "walk", s.kind, walk, int64(res.Hops))
		}
		return res, err
	}, serve.RepairOptions{
		BestOfBoth:   cfg.BestOfBoth,
		DampPenalty:  cfg.DampPenalty,
		DampHalfLife: cfg.DampHalfLife,
	})
	s.initRoutes(s.repair)
	// The journal entry rides the swap hook: every commit path
	// (background rebuild, synchronous rebuild, two-phase swap) is one
	// event.
	dyn.OnSwap(func(v compactroute.VersionInfo) {
		s.journal.Record("swap", fmt.Sprintf("version %d (mutations %d..%d, build %v)",
			v.ID, v.MutFrom, v.MutTo, v.BuildWall.Round(time.Microsecond)))
	})
	return nil
}

// initStatic loads cfg.Scheme as a persisted scheme file, computing
// the metric first when requested, so every answer carries stretch.
func (s *Server) initStatic(cfg Config) error {
	f, err := os.Open(cfg.Scheme)
	if err != nil {
		return fmt.Errorf("%v (not a registered kind: %s)", err, strings.Join(compactroute.Kinds(), ", "))
	}
	defer f.Close()
	scheme, err := compactroute.Load(f)
	if err != nil {
		return fmt.Errorf("loading %s: %w", cfg.Scheme, err)
	}
	if cfg.Metric {
		scheme.Network().EnsureMetric()
	}
	s.scheme = scheme
	s.initRoutes(serve.RouterFunc(func(ctx context.Context, src, dst uint64) (compactroute.Result, error) {
		walk := time.Now()
		res, err := scheme.RouteByNameCtx(ctx, src, dst)
		if err == nil {
			obs.SpanN(ctx, "scheme", "walk", scheme.Kind(), walk, int64(res.Hops))
		}
		return res, err
	}))
	return nil
}

// BuildNetwork materializes the topology a kind-built Server
// constructs over: cfg.GraphFile when set, else a generated gnp
// network from (Seed, N, P) with uniform [1, 8] weights. Exported so
// harnesses (benchmarks, tests, load generators) can mirror a shard's
// topology exactly without sharing a file.
func BuildNetwork(cfg Config) (*compactroute.Network, error) {
	if cfg.GraphFile != "" {
		f, err := os.Open(cfg.GraphFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return compactroute.LoadNetwork(f)
	}
	n := cfg.N
	if n == 0 {
		n = 512
	}
	p := cfg.P
	if p <= 0 {
		p = 8 / float64(n)
	}
	return compactroute.RandomNetwork(cfg.Seed, n, p, compactroute.UniformWeights(1, 8)), nil
}

// Dynamic reports whether the server mutates and rebuilds (a
// kind-built scheme) or serves a frozen file.
func (s *Server) Dynamic() bool { return s.dyn != nil }

// currentScheme resolves the scheme answering queries right now: the
// serving version's in dynamic mode, the loaded one otherwise.
func (s *Server) currentScheme() *compactroute.Scheme {
	if s.dyn != nil {
		return s.dyn.Scheme(s.kind)
	}
	return s.scheme
}

// Scheme returns the scheme answering queries right now. In dynamic
// mode it is bound to the serving version and stays valid — on its
// version — across later swaps.
func (s *Server) Scheme() *compactroute.Scheme { return s.currentScheme() }

// Start launches the background rebuild worker (dynamic mode only; a
// no-op otherwise, and idempotent). The async POST /v1/rebuild flow
// and the RebuildAfter auto-trigger are queued onto this worker, so a
// dynamic Server that skips Start answers 202 without ever rebuilding.
//
// The worker lives until ctx is canceled or Close is called,
// whichever comes first — the owner's lifecycle context (routed hands
// in its signal context) is what lets shutdown abort an in-flight
// rebuild instead of waiting out a long build.
func (s *Server) Start(ctx context.Context) {
	s.started.Do(func() {
		if s.dyn == nil {
			close(s.loopDone)
			return
		}
		ctx, cancel := context.WithCancel(ctx)
		s.loopCancel = cancel
		go s.rebuildLoop(ctx)
	})
}

// Close stops the background rebuild worker — canceling a rebuild in
// flight — and waits for it to exit. It does not wait for in-flight
// HTTP requests (Drain does) and is safe to call more than once, with
// or without Start.
func (s *Server) Close() {
	s.closed.Do(func() { close(s.done) })
	// Ensure loopDone has an owner even when Start was never called;
	// when it was, this Do is a no-op and loopCancel is visible (the
	// Once is the memory barrier).
	s.started.Do(func() { close(s.loopDone) })
	if s.loopCancel != nil {
		s.loopCancel()
	}
	<-s.loopDone
}

// Drain flips the server into lame-duck mode — every new request,
// health checks included, answers 503 with Retry-After — and waits for
// the in-flight requests to finish, or for ctx to expire (returning
// its error with requests still running). Draining is one-way.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for s.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %d requests still in flight: %w", s.inflight.Load(), ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Handler returns the HTTP surface: the /v1 routes behind the drain
// gate.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Increment-before-check pairs with Drain's store-then-poll:
		// any request admitted here is visible to the drain poll.
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			HTTPError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Mutate validates and appends topology mutations atomically (all or
// none), returning the sequence number of the last one. The accepted
// batch reaches the repair layer's fault view in the same critical
// section, so a route admitted after Mutate returns cannot cross a
// link it just learned is dead. Every accepted fail/recover event
// lands in the event journal here, the one place each passes through.
// A static server wraps ErrStatic.
func (s *Server) Mutate(ms ...compactroute.Mutation) (uint64, error) {
	if s.dyn == nil {
		return 0, fmt.Errorf("server: mutate: %w", ErrStatic)
	}
	s.muteMu.Lock()
	defer s.muteMu.Unlock()
	seq, err := s.dyn.Apply(ms...)
	if err != nil {
		return seq, err
	}
	for _, m := range ms {
		if m.Op.Transient() {
			s.journal.Record("fault", m.String())
		}
	}
	s.repair.Observe(ms...)
	return seq, nil
}

// Rebuild synchronously replays the pending mutations, rebuilds every
// configured kind, and hot-swaps the new version in (serialized with
// the background worker). A static server wraps ErrStatic.
func (s *Server) Rebuild(ctx context.Context) (compactroute.VersionInfo, error) {
	if s.dyn == nil {
		return compactroute.VersionInfo{}, fmt.Errorf("server: rebuild: %w", ErrStatic)
	}
	return s.dyn.Rebuild(ctx)
}

// Stage runs the first half of a two-phase rebuild: build the next
// version without swapping it in. A static server wraps ErrStatic.
func (s *Server) Stage(ctx context.Context) (compactroute.VersionInfo, error) {
	if s.dyn == nil {
		return compactroute.VersionInfo{}, fmt.Errorf("server: stage: %w", ErrStatic)
	}
	return s.dyn.Stage(ctx)
}

// SwapTo commits the staged version named by id (the second half of a
// two-phase rebuild); committing the serving version's ID is a no-op.
// A mismatch wraps compactroute.ErrVersionSkew; a static server wraps
// ErrStatic.
func (s *Server) SwapTo(id uint64) (compactroute.VersionInfo, error) {
	if s.dyn == nil {
		return compactroute.VersionInfo{}, fmt.Errorf("server: swap: %w", ErrStatic)
	}
	return s.dyn.SwapTo(id)
}

// Version returns the serving version's lineage; ok is false for a
// static server (which has no version history).
func (s *Server) Version() (v compactroute.VersionInfo, ok bool) {
	if s.dyn == nil {
		return compactroute.VersionInfo{}, false
	}
	return s.dyn.Version(), true
}

// DynStats is the dynamic-serving block of Stats.
type DynStats struct {
	Version     uint64  `json:"version"`
	Staged      *uint64 `json:"staged,omitempty"` // staged-but-uncommitted version, if any
	Pending     uint64  `json:"pending"`
	Mutations   uint64  `json:"mutations"` // mutation log length
	Swaps       uint64  `json:"swaps"`
	LastPauseNs int64   `json:"lastPauseNs"`
	MaxPauseNs  int64   `json:"maxPauseNs"`
	BuildWallNs int64   `json:"buildWallNs"` // build wall time of the serving version
}

// Stats is one point-in-time snapshot of the serving tier: the pool
// counters (embedded flat, the pre-dynamic shape), the identity of the
// scheme answering queries, and the optional dynamic and fault blocks.
// /v1/stats is its JSON form; /v1/healthz and /v1/metrics render from
// it too, so every scrape view reads one snapshot.
type Stats struct {
	serve.Stats
	Scheme  string            `json:"scheme"` // Scheme.Name of the serving scheme
	Kind    string            `json:"kind"`
	Nodes   int               `json:"nodes"`
	Edges   int               `json:"edges"`
	Metric  bool              `json:"metric"` // shortest-path metric present (answers carry stretch)
	Dynamic *DynStats         `json:"dynamic,omitempty"`
	Faults  *serve.FaultStats `json:"faults,omitempty"`
}

// Stats returns a point-in-time snapshot of the serving tier: the one
// read of the pool, dynamic-handle, and repair-layer state behind
// every scrape view. It never waits on a build in progress, because
// /v1/healthz renders from it and health probes must answer while a
// shard stages its part of a cut-over.
func (s *Server) Stats() Stats {
	out := Stats{Stats: s.pool.Stats()}
	scheme := s.currentScheme()
	if s.dyn != nil {
		// Read the version, then the rest, then the version again, and
		// retry until no swap landed in between: a swap between the
		// version and pending reads would pair the old version's sealed
		// log position with the new one's empty backlog, and the log
		// length would fall below mutations already acknowledged.
		for {
			v := s.dyn.Version()
			scheme = s.currentScheme()
			pending := s.dyn.Pending()
			swaps, last, max := s.dyn.SwapStats()
			out.Dynamic = &DynStats{
				Version:     v.ID,
				Pending:     pending,
				Mutations:   v.MutTo + pending,
				Swaps:       swaps,
				LastPauseNs: int64(last),
				MaxPauseNs:  int64(max),
				BuildWallNs: int64(v.BuildWall),
			}
			if sv, ok := s.dyn.Staged(); ok {
				id := sv.ID
				out.Dynamic.Staged = &id
			}
			if s.dyn.Version().ID == v.ID {
				break
			}
		}
		fs := s.repair.Stats()
		out.Faults = &fs
	}
	net := scheme.Network()
	out.Scheme, out.Kind = scheme.Name(), scheme.Kind()
	out.Nodes, out.Edges, out.Metric = net.N(), net.Graph().M(), net.HasMetric()
	return out
}

// rebuildLoop is the background rebuild goroutine: triggers arrive
// from POST /v1/rebuild (with an optional reply channel for ?wait=1)
// and from the RebuildAfter auto-trigger; rebuilds run one at a time
// off the serving path. ctx is the worker's lifecycle (canceled by
// Close or the owner's context): it aborts an in-flight rebuild so
// shutdown never waits out a long build.
func (s *Server) rebuildLoop(ctx context.Context) {
	defer close(s.loopDone)
	for {
		select {
		case <-s.done:
			return
		case <-ctx.Done():
			return
		case reply := <-s.rebuildReq:
			before := s.dyn.Version().ID
			t0 := time.Now()
			v, err := s.dyn.Rebuild(ctx)
			switch {
			case err != nil:
				s.logf("server: rebuild failed (old version keeps serving): %v", err)
				s.journal.Record("rebuild-failed", err.Error())
			case v.ID == before:
				s.logf("server: rebuild no-op (version %d already current, nothing pending)", v.ID)
			default:
				_, pause, _ := s.dyn.SwapStats()
				s.logf("server: swapped in version %d (mutations %d..%d, build %v, pause %v, total %v)",
					v.ID, v.MutFrom, v.MutTo, v.BuildWall.Round(time.Microsecond),
					pause, time.Since(t0).Round(time.Microsecond))
			}
			if reply != nil {
				reply <- rebuildReply{v: v, err: err}
			}
			// Mutations can land mid-rebuild; honor the auto-trigger
			// for whatever is still pending.
			s.maybeAutoRebuild()
		}
	}
}

// triggerRebuild enqueues a rebuild, returning false when one is
// already queued (the queued run will absorb this caller's mutations
// too — the log is sealed at rebuild time, not trigger time).
func (s *Server) triggerRebuild(reply chan rebuildReply) bool {
	select {
	case s.rebuildReq <- reply:
		return true
	default:
		return false
	}
}

// maybeAutoRebuild enqueues a rebuild when the pending backlog crosses
// the RebuildAfter threshold.
func (s *Server) maybeAutoRebuild() {
	if s.cfg.RebuildAfter > 0 && s.dyn.Pending() >= uint64(s.cfg.RebuildAfter) {
		s.triggerRebuild(nil)
	}
}
