// Package cluster is the front-door serving tier over N routed
// shards: one consistent-hash partition of the external name space,
// one coordinated mutation log, and one two-phase cut-over that keeps
// every shard answering from the same topology version.
//
// # Partition model
//
// Every shard holds the FULL scheme — shards started from the same
// topology source and seed build byte-identical versions — so the
// partition is of query ownership, not of graph state. Ownership is
// rendezvous (highest-random-weight) hashing: shard(name) is the
// shard maximizing mix(name XOR shardSeed), which moves only 1/N of
// the names when a shard joins or leaves and needs no coordination.
// Every route is one shard call, proxied to the owner of its source:
// in the paper's scheme the source walks the whole route from its own
// table and the destination's label, and the shard already answers
// with the stretch denominator from its own metric, so no second shard
// has anything to add. Ownership by source spreads the sources, and
// so the walks, over the shards. The answer's topology version must be
// the one the front-door last committed (before any cut-over, the
// first version it saw); any other version is refused with version
// skew (409) rather than served from a graph the rest of the tier does
// not hold.
//
// # Coordinated cut-over
//
// Mutations fan out to every healthy shard under one lock, one batch
// at a time, so the shards' mutation logs stay identical. A cluster
// rebuild is two-phase: every shard stages the next version (the
// expensive build, off the serving path), the coordinator verifies
// the staged versions agree (same ID, same sealed log position), and
// only then commits them all while holding the route gate — in-flight
// routes finish first, new routes wait out the commit fan-out (the
// measured cut-over pause), and no route ever observes two versions.
// A shard that fails its commit is ejected before it can answer from
// the wrong topology.
//
// # Failure handling
//
// A transport failure ejects the shard and the route retries on
// another healthy shard (safe: every shard owns the full scheme).
// A caller abandoning its own request (disconnect, client-side
// timeout) is NOT a shard fault: it ejects nothing, and the
// log-changing fan-outs (Mutate, the Rebuild phases) run detached
// from the caller's context so a disconnect can never strand them
// half-applied across the shards. A background health loop probes
// every shard, each probe under its own deadline of one interval:
// healthy shards for liveness, ejected ones with exponential backoff
// for re-admission, granted only when the shard's version ID and log
// length match a currently-healthy reference shard — a shard that
// missed mutations while it was out stays out.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"compactroute"
	"compactroute/client"
	"compactroute/internal/obs"
)

// ErrNoHealthyShard reports a cluster call with every shard ejected.
// Retryable (503) — the health loop may re-admit shards.
var ErrNoHealthyShard = errors.New("cluster: no healthy shard")

// Internal deadlines for the detached coordination fan-outs (see
// Mutate and Rebuild): log appends and version swaps are cheap, so a
// shard that cannot finish one inside this window is treated as down.
// Staging is NOT bounded — builds legitimately take arbitrary time.
const fanoutTimeout = 30 * time.Second

// Options configures New.
type Options struct {
	// Shards are the routed base URLs (http://host:port), one per
	// shard. At least one is required. All shards must serve the same
	// scheme built from the same topology source and seed.
	Shards []string
	// HealthEvery is the health-probe interval (0: 1s). Ejected
	// shards are probed with exponential backoff on top of this.
	HealthEvery time.Duration
	// TraceSample traces 1 in TraceSample front-door requests (0: 64;
	// negative: sampling off — propagated trace IDs are still
	// honored). A sampled request's ID rides the X-Compactroute-Trace
	// header on its shard call, so the shard's view merges under the
	// same ID via GET /v1/trace/{id}.
	TraceSample int
	// TraceRing bounds the stored-trace ring (0: 1024).
	TraceRing int
	// SlowLog, when non-nil, receives slow and refused front-door
	// requests as JSON lines.
	SlowLog io.Writer
	// SlowThreshold is the slow-log latency threshold (0: 100ms).
	SlowThreshold time.Duration
	// Logf receives operational log lines (nil: log.Printf).
	Logf func(format string, args ...any)
}

// shard is one routed backend: a client, a health bit, and the
// rendezvous seed its ownership scores mix with.
type shard struct {
	url  string
	c    *client.Client
	seed uint64

	healthy   atomic.Bool
	fails     atomic.Uint32 // consecutive failed probes (backoff exponent)
	nextProbe atomic.Int64  // unix nanos before which no re-admission probe runs
}

// Cluster is the front-door: construct with New, arm the health loop
// with Start, serve Handler. All methods are safe for concurrent use.
type Cluster struct {
	opts   Options
	logf   func(string, ...any)
	shards []*shard

	// gate is the two-phase cut-over gate: routes hold it for read,
	// the commit fan-out holds it for write. The write hold time IS
	// the cluster's cut-over pause.
	gate sync.RWMutex
	// muteMu serializes mutate fan-outs, coordinated rebuilds, and
	// re-admission checks: one log-changing operation at a time keeps
	// every shard's mutation log identical.
	muteMu sync.Mutex

	started sync.Once
	closed  sync.Once
	done    chan struct{}
	loop    chan struct{}

	// version is 1 + the topology version ID every route must answer
	// from (0: none seen yet). A commit stores it while holding the
	// gate for write, so no route in flight compares against a version
	// being replaced; before any cut-over the first answer adopts it.
	version atomic.Uint64

	// counters (see Stats)
	routes, proxied               atomic.Uint64
	failovers, ejections, readmit atomic.Uint64
	skews, swaps                  atomic.Uint64
	lastCutoverNs, maxCutoverNs   atomic.Int64

	// observability (see internal/obs)
	tracer  *obs.Tracer
	metrics *obs.Metrics
	journal *obs.Journal
	slow    *obs.SlowLog
}

// Stats is a point-in-time snapshot of the front-door counters.
type Stats struct {
	Shards        int    `json:"shards"`
	Healthy       int    `json:"healthy"`
	Routes        uint64 `json:"routes"`
	Proxied       uint64 `json:"proxied"`   // routes answered by one shard call (every answered route)
	Scattered     uint64 `json:"scattered"` // always 0: no route spans two shards
	Failovers     uint64 `json:"failovers"`
	Ejections     uint64 `json:"ejections"`
	Readmissions  uint64 `json:"readmissions"`
	SkewObserved  uint64 `json:"skewObserved"`
	Swaps         uint64 `json:"swaps"` // coordinated cut-overs completed
	LastCutoverNs int64  `json:"lastCutoverNs"`
	MaxCutoverNs  int64  `json:"maxCutoverNs"`
}

// New wires a front-door over the shard URLs. Shards start healthy;
// the first failed call or probe ejects. Call Start to arm the health
// loop and Close when done.
func New(opts Options) (*Cluster, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("cluster: Options.Shards is required")
	}
	c := &Cluster{
		opts: opts,
		logf: opts.Logf,
		done: make(chan struct{}),
		loop: make(chan struct{}),
	}
	if c.logf == nil {
		c.logf = log.Printf
	}
	sample := opts.TraceSample
	switch {
	case sample == 0:
		sample = 64
	case sample < 0:
		sample = 0
	}
	c.tracer = obs.NewTracer(opts.TraceRing, sample)
	c.metrics = obs.NewMetrics()
	c.journal = obs.NewJournal(256)
	c.slow = obs.NewSlowLog(opts.SlowLog, opts.SlowThreshold)
	seen := make(map[string]bool, len(opts.Shards))
	for _, url := range opts.Shards {
		if seen[url] {
			return nil, fmt.Errorf("cluster: duplicate shard %s", url)
		}
		seen[url] = true
		s := &shard{url: url, c: client.New(url), seed: urlSeed(url)}
		s.healthy.Store(true)
		c.shards = append(c.shards, s)
	}
	return c, nil
}

// urlSeed derives a shard's stable rendezvous seed from its URL, so
// ownership does not depend on the order shards were listed in.
func urlSeed(url string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(url))
	return mix(h.Sum64())
}

// mix is the splitmix64 finalizer: cheap, full-avalanche, and enough
// to turn (name XOR seed) into an unbiased rendezvous score.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the index of the healthy shard owning name, or -1
// with every shard ejected. Rendezvous hashing: the healthy shard
// with the highest mixed score wins, so ejecting a shard reassigns
// only that shard's names.
func (c *Cluster) Owner(name uint64) int {
	best, bestScore := -1, uint64(0)
	for i, s := range c.shards {
		if !s.healthy.Load() {
			continue
		}
		if score := mix(name ^ s.seed); best == -1 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// ShardURLs returns the configured shard base URLs in order.
func (c *Cluster) ShardURLs() []string {
	out := make([]string, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.url
	}
	return out
}

// Start arms the background health loop (idempotent).
func (c *Cluster) Start() {
	c.started.Do(func() { go c.healthLoop() })
}

// Close stops the health loop. Safe to call more than once, with or
// without Start.
func (c *Cluster) Close() {
	c.closed.Do(func() { close(c.done) })
	c.started.Do(func() { close(c.loop) }) // never started: nothing to wait for
	<-c.loop
}

// eject marks a shard unhealthy after a transport failure.
func (c *Cluster) eject(s *shard, why error) {
	if s.healthy.CompareAndSwap(true, false) {
		c.ejections.Add(1)
		s.fails.Store(1)
		s.nextProbe.Store(time.Now().Add(c.healthEvery()).UnixNano())
		c.journal.Record("eject", fmt.Sprintf("%s: %v", s.url, why))
		c.logf("cluster: ejected %s: %v", s.url, why)
	}
}

func (c *Cluster) healthEvery() time.Duration {
	if c.opts.HealthEvery > 0 {
		return c.opts.HealthEvery
	}
	return time.Second
}

// healthLoop probes shards: healthy ones for liveness every tick,
// ejected ones for re-admission with exponential backoff.
func (c *Cluster) healthLoop() {
	defer close(c.loop)
	tick := time.NewTicker(c.healthEvery())
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
			c.probeAll()
		}
	}
}

// probeAll runs one health pass over every shard: a liveness check
// for each healthy shard, a re-admission check for each ejected one
// whose backoff has run out.
func (c *Cluster) probeAll() {
	for _, s := range c.shards {
		switch {
		case s.healthy.Load():
			c.probeLive(s)
		case time.Now().UnixNano() >= s.nextProbe.Load():
			c.tryReadmit(s)
		}
	}
}

// probeCtx bounds ONE health check by one interval: each shard's
// probe gets its own deadline, so a slow shard cannot spend the next
// shard's budget and have the healthy one ejected on an expired
// context.
func (c *Cluster) probeCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), c.healthEvery())
}

// probeLive ejects a healthy shard that fails its liveness probe.
// Only transport-level failures eject; an API error means the shard
// is up and talking.
func (c *Cluster) probeLive(s *shard) {
	ctx, cancel := c.probeCtx()
	defer cancel()
	if _, err := s.c.Healthz(ctx); isTransport(err) {
		c.eject(s, err)
	}
}

// tryReadmit probes an ejected shard and re-admits it only when its
// topology lineage matches a healthy reference shard: same version
// ID, same mutation-log length. The check runs under muteMu so no
// mutate fan-out or rebuild is mid-flight while the two shards are
// compared; its deadline starts once the lock is held, so waiting out
// a long staging build does not use it up. A shard that missed log
// entries while it was out can never pass — there is no re-sync path,
// so it stays ejected (by design: admitting it would silently fork
// the cluster's topology).
func (c *Cluster) tryReadmit(s *shard) {
	backoff := func() {
		n := s.fails.Add(1)
		if n > 6 {
			n = 6 // cap: probe at least every 64 intervals
		}
		d := c.healthEvery() * time.Duration(uint64(1)<<n)
		s.nextProbe.Store(time.Now().Add(d).UnixNano())
	}
	c.muteMu.Lock()
	defer c.muteMu.Unlock()
	ctx, cancel := c.probeCtx()
	defer cancel()
	h, err := s.c.Healthz(ctx)
	if err != nil {
		backoff()
		return
	}
	for _, ref := range c.shards {
		if ref == s || !ref.healthy.Load() {
			continue
		}
		rh, err := ref.c.Healthz(ctx)
		if err != nil {
			continue
		}
		if h.Version != rh.Version || h.Mutations != rh.Mutations {
			c.logf("cluster: %s answered but diverged (version %d log %d, reference %s version %d log %d); keeping it out",
				s.url, h.Version, h.Mutations, ref.url, rh.Version, rh.Mutations)
			backoff()
			return
		}
		break // matches a healthy reference
	}
	// Matches the reference (or there is none: a fully-down cluster
	// re-admits whoever answers first).
	s.fails.Store(0)
	s.healthy.Store(true)
	c.readmit.Add(1)
	c.journal.Record("readmit", fmt.Sprintf("%s (version %d, log %d)", s.url, h.Version, h.Mutations))
	c.logf("cluster: re-admitted %s (version %d, log %d)", s.url, h.Version, h.Mutations)
}

// healthyCount returns how many shards are serving.
func (c *Cluster) healthyCount() int {
	n := 0
	for _, s := range c.shards {
		if s.healthy.Load() {
			n++
		}
	}
	return n
}

// RouteByName answers one routing query with one shard call, to the
// healthy owner of src (see the package doc). The route gate is held
// for read, so answers never straddle a coordinated cut-over, and an
// answer from any version but the tier's is refused as version skew.
// Transport failures eject the shard and the query fails over to the
// next owner.
//
//crlint:hotpath
func (c *Cluster) RouteByName(ctx context.Context, src, dst uint64) (client.Route, error) {
	c.gate.RLock()
	defer c.gate.RUnlock()
	c.routes.Add(1)
	var lastErr error
	for attempt := 0; attempt <= len(c.shards); attempt++ {
		if attempt > 0 {
			c.failovers.Add(1)
			obs.Mark(ctx, "frontdoor", "failover", "")
		}
		i := c.Owner(src)
		if i < 0 {
			return client.Route{}, fmt.Errorf("%w (last transport error: %v)", ErrNoHealthyShard, lastErr)
		}
		s := c.shards[i]
		t0 := time.Now()
		res, err := s.c.RouteByName(ctx, src, dst)
		obs.SpanSince(ctx, "frontdoor", "proxy", s.url, t0)
		if err != nil {
			if shardFault(ctx, err) {
				c.eject(s, err)
				lastErr = err
				continue
			}
			return client.Route{}, err
		}
		// Skew is a coordination fault, not a shard fault: another owner
		// would answer from its own version, and the caller needs the 409.
		if res.Version != nil && !c.sameVersion(*res.Version) {
			return client.Route{}, c.skewed(s, *res.Version)
		}
		c.proxied.Add(1)
		return res, nil
	}
	return client.Route{}, fmt.Errorf("%w (all retries failed: %v)", ErrNoHealthyShard, lastErr)
}

// sameVersion reports whether an answer from version v is from the
// tier's version, adopting v when the front-door has none yet.
func (c *Cluster) sameVersion(v uint64) bool {
	want := c.version.Load()
	if want == 0 {
		c.version.CompareAndSwap(0, v+1)
		want = c.version.Load()
	}
	return want == v+1
}

// skewed counts a version skew and builds its refusal. Kept out of
// RouteByName so the hot path's escape budget stays at zero.
//
//go:noinline
func (c *Cluster) skewed(s *shard, v uint64) error {
	c.skews.Add(1)
	return fmt.Errorf("cluster: %s answered from version %d, the tier serves %d: %w",
		s.url, v, c.version.Load()-1, compactroute.ErrVersionSkew)
}

// isTransport reports whether err is a transport-level failure (no
// HTTP answer) as opposed to an API error the shard chose to send.
func isTransport(err error) bool {
	var apiErr *client.Error
	return err != nil && !errors.As(err, &apiErr)
}

// shardFault reports whether err counts AGAINST the shard: a
// transport failure that was not caused by the caller abandoning ctx.
// A client disconnect or client-side timeout surfaces through the
// HTTP client as context.Canceled/DeadlineExceeded with ctx.Err()
// set — the shard is fine, the caller left — and must not eject
// anything or trigger failover. Only for paths driven by the
// CALLER's context; internal probe contexts (probeAll) time out
// precisely when the shard is unresponsive and keep using
// isTransport.
func shardFault(ctx context.Context, err error) bool {
	if !isTransport(err) {
		return false
	}
	if ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return false
	}
	return true
}

// Mutate fans a mutation batch out to every healthy shard, one batch
// at a time cluster-wide, keeping the shards' logs identical. The
// first shard validates for the cluster (the logs being identical,
// its verdict is every shard's verdict): a validation error aborts
// the fan-out with nothing applied anywhere. A shard that fails
// transport mid-fan-out is ejected — its log is now short, and the
// re-admission check will hold it out until an operator restarts it
// from the shared topology source.
func (c *Cluster) Mutate(ctx context.Context, muts ...compactroute.Mutation) (client.MutateReply, error) {
	// Detached from the caller: a client disconnect mid-fan-out must
	// not abandon the batch half-applied (the shards' logs would fork)
	// or eject shards that merely saw the cancellation. The internal
	// deadline keeps a hung shard from stalling the mutation pipeline.
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), fanoutTimeout)
	defer cancel()
	c.muteMu.Lock()
	defer c.muteMu.Unlock()
	var first *client.MutateReply
	for _, s := range c.shards {
		if !s.healthy.Load() {
			continue
		}
		reply, err := s.c.Mutate(ctx, muts...)
		if err != nil {
			if isTransport(err) {
				c.eject(s, err)
				continue
			}
			if first == nil {
				return client.MutateReply{}, err // validation failed; nothing applied anywhere
			}
			// Later shards must agree with the first — logs are
			// identical. Disagreement means the shard forked; eject.
			c.eject(s, fmt.Errorf("mutation accepted by peers but rejected here: %w", err))
			continue
		}
		if first == nil {
			first = &reply
		}
	}
	if first == nil {
		return client.MutateReply{}, ErrNoHealthyShard
	}
	return *first, nil
}

// Rebuild drives a coordinated two-phase cut-over:
//
//  1. STAGE — every healthy shard builds the next version off its
//     serving path (POST /v1/rebuild?stage=1), concurrently. The
//     fan-out runs under muteMu, so every shard seals its log at the
//     same position.
//  2. VERIFY — the staged versions must agree: same ID, same sealed
//     log position. Anything else is version skew; nothing commits.
//  3. COMMIT — with the route gate held for write (in-flight routes
//     have finished, new routes wait), every shard swaps to the
//     agreed ID. The gate hold time is the returned cut-over pause.
//
// With nothing pending the shards stage their serving version and the
// commit is an idempotent no-op — the call is always safe. A shard
// that fails its commit is ejected before the gate reopens, so every
// shard still routing answers from the same version.
func (c *Cluster) Rebuild(ctx context.Context) (compactroute.VersionInfo, time.Duration, error) {
	// Detached from the caller: once staging starts, a client
	// disconnect must not cancel the cut-over halfway (some shards
	// committed, some not, the rest ejected for seeing the
	// cancellation). Staging is unbounded — builds take as long as
	// they take — while the commit fan-out gets its own deadline below
	// so a hung shard cannot pin the route gate.
	ctx = context.WithoutCancel(ctx)
	c.muteMu.Lock()
	defer c.muteMu.Unlock()

	var healthy []*shard
	for _, s := range c.shards {
		if s.healthy.Load() {
			healthy = append(healthy, s)
		}
	}
	if len(healthy) == 0 {
		return compactroute.VersionInfo{}, 0, ErrNoHealthyShard
	}

	// Phase 1: stage everywhere, concurrently (builds dominate).
	infos := make([]compactroute.VersionInfo, len(healthy))
	errs := make([]error, len(healthy))
	var wg sync.WaitGroup
	for i, s := range healthy {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			infos[i], errs[i] = s.c.Stage(ctx)
		}(i, s)
	}
	wg.Wait()
	staged := make([]*shard, 0, len(healthy))
	stagedInfos := make([]compactroute.VersionInfo, 0, len(healthy))
	for i, err := range errs {
		if err != nil {
			if isTransport(err) {
				c.eject(healthy[i], err)
				continue
			}
			return compactroute.VersionInfo{}, 0, fmt.Errorf("cluster: stage on %s: %w", healthy[i].url, err)
		}
		staged = append(staged, healthy[i])
		stagedInfos = append(stagedInfos, infos[i])
	}
	if len(staged) == 0 {
		return compactroute.VersionInfo{}, 0, ErrNoHealthyShard
	}

	// Phase 2: verify agreement before anything irreversible.
	want := stagedInfos[0]
	for i, info := range stagedInfos {
		if info.ID != want.ID || info.MutTo != want.MutTo {
			c.skews.Add(1)
			return compactroute.VersionInfo{}, 0, fmt.Errorf(
				"cluster: staged versions disagree: %s at %d (log %d), %s at %d (log %d): %w",
				staged[0].url, want.ID, want.MutTo, staged[i].url, info.ID, info.MutTo,
				compactroute.ErrVersionSkew)
		}
	}

	// Phase 3: commit under the gate. The pause is what routes see.
	t0 := time.Now()
	c.gate.Lock()
	cctx, cancel := context.WithTimeout(ctx, fanoutTimeout)
	var commitWG sync.WaitGroup
	commitErrs := make([]error, len(staged))
	for i, s := range staged {
		commitWG.Add(1)
		go func(i int, s *shard) {
			defer commitWG.Done()
			_, commitErrs[i] = s.c.SwapTo(cctx, want.ID)
		}(i, s)
	}
	commitWG.Wait()
	cancel()
	committed := 0
	var lastCommitErr error
	for i, err := range commitErrs {
		if err != nil {
			// Transport loss or a 409 alike: the shard may be serving
			// the old version — it cannot stay in rotation.
			c.eject(staged[i], fmt.Errorf("commit of version %d failed: %w", want.ID, err))
			if client.IsStatus(err, 409) {
				c.skews.Add(1)
			}
			lastCommitErr = err
			continue
		}
		committed++
	}
	if committed > 0 {
		c.version.Store(want.ID + 1) // every route from here on answers from want.ID
	}
	c.gate.Unlock()
	pause := time.Since(t0)

	if committed == 0 {
		// Every shard was ejected mid-commit: nothing is serving
		// want.ID, so claiming success would hand the caller a version
		// no route will ever answer from.
		return compactroute.VersionInfo{}, 0, fmt.Errorf(
			"%w (commit of version %d failed on all %d staged shards, last: %v)",
			ErrNoHealthyShard, want.ID, len(staged), lastCommitErr)
	}
	c.swaps.Add(1)
	c.lastCutoverNs.Store(int64(pause))
	for {
		old := c.maxCutoverNs.Load()
		if int64(pause) <= old || c.maxCutoverNs.CompareAndSwap(old, int64(pause)) {
			break
		}
	}
	c.journal.Record("cutover", fmt.Sprintf("version %d on %d/%d shards (log %d..%d, pause %v)",
		want.ID, committed, len(staged), want.MutFrom, want.MutTo, pause.Round(time.Microsecond)))
	c.logf("cluster: cut over %d/%d shards to version %d (log %d..%d, pause %v)",
		committed, len(staged), want.ID, want.MutFrom, want.MutTo, pause.Round(time.Microsecond))
	return want, pause, nil
}

// Stats returns a point-in-time snapshot of the front-door counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Shards:        len(c.shards),
		Healthy:       c.healthyCount(),
		Routes:        c.routes.Load(),
		Proxied:       c.proxied.Load(),
		Failovers:     c.failovers.Load(),
		Ejections:     c.ejections.Load(),
		Readmissions:  c.readmit.Load(),
		SkewObserved:  c.skews.Load(),
		Swaps:         c.swaps.Load(),
		LastCutoverNs: c.lastCutoverNs.Load(),
		MaxCutoverNs:  c.maxCutoverNs.Load(),
	}
}
