// Package serve is the concurrent query-serving layer over a built
// routing scheme: a bounded worker pool that turns unbounded HTTP
// concurrency into a fixed routing parallelism, fronted by a sharded
// LRU cache of routing results with single-flight duplicate
// suppression.
//
// The shape follows the paper's economics. A compact routing scheme
// spends its budget at construction time (Õ(n^{1/k}) bits per node,
// APSP, tree covers) precisely so that queries are cheap; a serving
// process therefore wants to (a) admit any number of callers, (b)
// bound the number of simultaneously-walking route computations to the
// hardware, and (c) never recompute a route it has already walked —
// routes are deterministic for a fixed scheme, so caching is sound,
// and N concurrent identical misses coalesce onto one computation
// (single flight) rather than racing N workers over the same walk.
// Shards keep the cache's lock fine-grained under the -race detector
// and real contention alike.
//
// The cached result is the facade's compactroute.Result, exactly as
// the Router returned it: one answer type from the scheme walk to the
// HTTP handler. Staleness invariant: a cached result snapshots
// ShortestCost (and MetricKnown) at computation time. A scheme served
// before its network has a metric (compactroute.Load without
// EnsureMetric) caches MetricKnown = false, and those entries are
// never refreshed — the cache trusts the scheme to be immutable. A
// daemon that wants true stretch in responses must therefore ensure
// the metric BEFORE the first query is admitted (cmd/routed computes
// it between Load and pool construction); calling EnsureMetric on a
// warm pool leaves every already-cached pair stale.
//
// The one sanctioned way to serve a scheme that DOES change is to
// swap in a new immutable scheme and call Purge in the same breath:
// Purge discards every cached result and suppresses in-flight
// re-population (a generation counter), which is exactly what the
// dynamic-topology swap hook does (internal/dynamic, DESIGN.md §7).
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"compactroute"
	"compactroute/internal/obs"
	"compactroute/internal/routeerr"
)

// ErrSaturated wraps every rejection: a query that could not be
// admitted (or whose flight could not be joined) before its context
// expired. Callers classify with errors.Is; the underlying context
// error (Canceled or DeadlineExceeded) stays in the chain too.
var ErrSaturated = routeerr.ErrSaturated

// Router is the query interface the pool serves: the facade's
// RouteByNameCtx shape. The context is the caller's — the pool hands
// it through so a canceled request aborts its route mid-walk.
type Router interface {
	RouteByName(ctx context.Context, srcName, dstName uint64) (compactroute.Result, error)
}

// RouterFunc adapts a function to the Router interface.
type RouterFunc func(ctx context.Context, srcName, dstName uint64) (compactroute.Result, error)

// RouteByName implements Router.
func (f RouterFunc) RouteByName(ctx context.Context, srcName, dstName uint64) (compactroute.Result, error) {
	return f(ctx, srcName, dstName)
}

// Stats is a point-in-time snapshot of pool counters. Every admitted
// request lands in exactly one of Hits, Misses, Coalesced, Errors, or
// Rejected.
type Stats struct {
	Requests  uint64 // queries admitted
	Hits      uint64 // served from cache
	Misses    uint64 // routed by a worker
	Coalesced uint64 // joined an identical in-flight computation
	Errors    uint64 // routing errors
	Rejected  uint64 // canceled while waiting for a worker or a flight
	Purges    uint64 // full cache invalidations (Purge calls)
	InFlight  int64  // currently routing
	CacheLen  int    // entries resident
	CacheCap  int    // configured capacity (exactly as requested)
	Workers   int    // pool size
	CacheOff  bool   // cache disabled
	ShardsLen int    // number of cache shards (0 when disabled)
}

// Options configures a Pool.
type Options struct {
	// Workers bounds concurrent route computations; 0 means GOMAXPROCS.
	Workers int
	// CacheSize is the total cached results across shards; 0 means
	// 1<<16, negative disables caching (and single-flight with it).
	CacheSize int
	// Shards is the cache shard count; 0 means 16, rounded up to a
	// power of two (and down so no shard has a zero quota).
	Shards int
}

// Pool serves routing queries through a bounded worker pool and a
// sharded LRU result cache. It is safe for concurrent use.
type Pool struct {
	router   Router
	slots    chan struct{}
	shards   []*shard
	mask     uint64
	cacheCap int
	noCache  bool

	requests  atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	errors    atomic.Uint64
	rejected  atomic.Uint64
	purges    atomic.Uint64
	inFlight  atomic.Int64
}

// NewPool builds a pool over r. With caching disabled (negative
// CacheSize) no shard structures are allocated at all.
func NewPool(r Router, o Options) *Pool {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		router:  r,
		slots:   make(chan struct{}, workers),
		noCache: o.CacheSize < 0,
	}
	if p.noCache {
		return p
	}
	size := o.CacheSize
	if size == 0 {
		size = 1 << 16
	}
	shards := o.Shards
	if shards <= 0 {
		shards = 16
	}
	// Round up to a power of two so shard selection is a mask…
	for shards&(shards-1) != 0 {
		shards++
	}
	// …then down so every shard holds at least one entry and the
	// per-shard quotas sum to exactly the requested capacity.
	for shards > size {
		shards /= 2
	}
	p.shards = make([]*shard, shards)
	p.mask = uint64(shards - 1)
	p.cacheCap = size
	for i := range p.shards {
		quota := size / shards
		if i < size%shards {
			quota++
		}
		p.shards[i] = newShard(quota)
	}
	return p
}

// Route answers one query, consulting the cache first and bounding the
// underlying computation by the worker pool. Concurrent identical
// misses coalesce: one caller leads the computation, the rest wait for
// its result. It blocks while all workers are busy; cancel ctx to give
// up waiting.
//
//crlint:hotpath
func (p *Pool) Route(ctx context.Context, srcName, dstName uint64) (compactroute.Result, error) {
	p.requests.Add(1)
	if err := ctx.Err(); err != nil {
		p.rejected.Add(1)
		return compactroute.Result{}, fmt.Errorf("serve: %w: %w", ErrSaturated, err)
	}
	if p.noCache {
		return p.compute(ctx, srcName, dstName)
	}
	key := cacheKey(srcName, dstName)
	sh := p.shard(key)
	for {
		// The shard generation is read at admission: if a Purge lands
		// anywhere between here and the result store, the store is
		// suppressed — sh.put re-checks the generation under the shard
		// lock, so the check and the insert are atomic (see Purge).
		gen := sh.generation()
		if res, ok := sh.get(key, srcName, dstName); ok {
			p.hits.Add(1)
			obs.Mark(ctx, "pool", "cache", "hit")
			return res, nil
		}
		fl, role := sh.joinFlight(key, srcName, dstName)
		switch role {
		case flightFollower:
			select {
			case <-fl.done:
				if fl.err != nil {
					if isCanceled(fl.err) {
						// The leader gave up waiting for a worker, but
						// this follower's own context is still live:
						// re-run the admission so a healthy caller
						// becomes the new leader instead of inheriting
						// a stranger's cancellation.
						continue
					}
					p.errors.Add(1)
					return compactroute.Result{}, fl.err
				}
				p.coalesced.Add(1)
				obs.Mark(ctx, "pool", "flight", "coalesced")
				return fl.res, nil
			case <-ctx.Done():
				p.rejected.Add(1)
				return compactroute.Result{}, fmt.Errorf("serve: %w: %w", ErrSaturated, ctx.Err())
			}
		case flightBypass:
			// A different pair behind the same folded key is in
			// flight; a collision must never read as someone else's
			// route, so this request computes independently.
			return p.compute(ctx, srcName, dstName)
		}
		res, err := p.compute(ctx, srcName, dstName)
		if err == nil {
			sh.put(key, srcName, dstName, res, gen)
		}
		sh.resolveFlight(key, fl, res, err)
		return res, err
	}
}

// Purge discards every cached result and in-flight registration — the
// hot-swap hook: after a topology swap, results computed on the old
// version must neither be served nor re-populated. In-flight
// computations are not interrupted (their callers resolved the old
// version at admission and legitimately receive its answer), but the
// per-shard generation bump prevents their results from entering the
// cache — the admission generation is re-checked under the shard lock
// at insert time, so no pre-purge result can slip in after the purge —
// and clearing the flight tables makes every post-purge request lead
// a fresh computation instead of following a pre-purge leader.
//
// Purge is cheap — a per-shard counter bump plus map reset — and safe
// to call concurrently with serving; it is a no-op on a pool with
// caching disabled.
func (p *Pool) Purge() {
	if p.noCache {
		return
	}
	for _, sh := range p.shards {
		sh.purge()
	}
	p.purges.Add(1)
}

// compute takes a worker slot and walks the route, maintaining the
// per-request counters.
//
//crlint:hotpath
func (p *Pool) compute(ctx context.Context, srcName, dstName uint64) (compactroute.Result, error) {
	start := time.Now()
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		p.rejected.Add(1)
		return compactroute.Result{}, fmt.Errorf("serve: %w: %w", ErrSaturated, ctx.Err())
	}
	p.inFlight.Add(1)
	res, err := p.router.RouteByName(ctx, srcName, dstName)
	p.inFlight.Add(-1)
	<-p.slots
	if err != nil {
		// A route aborted mid-walk because the caller left is the same
		// condition as a canceled wait (the context threads through the
		// hop loop now), not a scheme error — so it carries the same
		// ErrSaturated classification as every other rejection.
		if isCanceled(err) {
			p.rejected.Add(1)
			return compactroute.Result{}, fmt.Errorf("serve: %w: %w", ErrSaturated, err)
		}
		p.errors.Add(1)
		return compactroute.Result{}, err
	}
	p.misses.Add(1)
	obs.SpanN(ctx, "pool", "compute", "miss", start, int64(res.Hops))
	return res, nil
}

func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats returns a point-in-time snapshot of the counters. Requests is
// read last: a query counts as admitted before any outcome counts it,
// so a query admitted and resolved mid-read can raise Requests but
// never push the outcomes past it.
func (p *Pool) Stats() Stats {
	s := Stats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Coalesced: p.coalesced.Load(),
		Errors:    p.errors.Load(),
		Rejected:  p.rejected.Load(),
		Purges:    p.purges.Load(),
		InFlight:  p.inFlight.Load(),
		Workers:   cap(p.slots),
		CacheOff:  p.noCache,
		ShardsLen: len(p.shards),
	}
	s.Requests = p.requests.Load()
	if !p.noCache {
		for _, sh := range p.shards {
			s.CacheLen += sh.len()
		}
		s.CacheCap = p.cacheCap
	}
	return s
}

func (p *Pool) shard(key uint64) *shard {
	// Multiply-shift mix so adjacent (src,dst) pairs spread across
	// shards; the low bits of the raw key are highly regular.
	key *= 0x9e3779b97f4a7c15
	return p.shards[(key>>33)&p.mask]
}

// cacheKey folds an ordered (src, dst) name pair into one 64-bit key.
// Names are arbitrary uint64s, so the fold must mix both halves; this
// is the 128→64 finalizer step of splitmix applied to each half.
func cacheKey(src, dst uint64) uint64 {
	h := src + 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h ^= dst + 0x9e3779b97f4a7c15
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// --- one LRU shard ---

type shard struct {
	mu      sync.Mutex
	cap     int
	items   map[uint64]*list.Element
	order   *list.List // front = most recent
	flights map[uint64]*flight
	// gen is the shard's purge generation. Written only under mu
	// (purge); read lock-free at admission (generation) and re-checked
	// under mu at insert (put), which makes check-and-insert atomic
	// with respect to a concurrent purge.
	gen atomic.Uint64
}

// entry keeps the original (src, dst) pair alongside the result: the
// map is keyed by a 64-bit fold of the pair, and a fold collision must
// read as a miss, never as someone else's route.
type entry struct {
	key      uint64
	src, dst uint64
	res      compactroute.Result
}

// flight is one in-progress computation that identical concurrent
// misses attach to. The leader publishes res/err before closing done,
// so followers reading after <-done need no further synchronization.
type flight struct {
	src, dst uint64
	waiters  int // followers attached (under the shard lock)
	done     chan struct{}
	res      compactroute.Result
	err      error
}

type flightRole uint8

const (
	flightLeader flightRole = iota
	flightFollower
	flightBypass // fold collision with a different in-flight pair
)

func newShard(capacity int) *shard {
	return &shard{
		cap:     capacity,
		items:   make(map[uint64]*list.Element, capacity),
		order:   list.New(),
		flights: make(map[uint64]*flight),
	}
}

func (s *shard) get(key, src, dst uint64) (compactroute.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return compactroute.Result{}, false
	}
	e := el.Value.(*entry)
	if e.src != src || e.dst != dst {
		return compactroute.Result{}, false // key collision: not our pair
	}
	s.order.MoveToFront(el)
	return e.res, true
}

// generation returns the shard's purge generation for admission-time
// capture.
func (s *shard) generation() uint64 { return s.gen.Load() }

// put inserts a result computed by a request admitted at generation
// gen, dropping it when a purge has intervened — a stale-topology
// result must never re-populate a purged cache.
func (s *shard) put(key, src, dst uint64, res compactroute.Result, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen.Load() != gen {
		return
	}
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry)
		e.src, e.dst, e.res = src, dst, res
		s.order.MoveToFront(el)
		return
	}
	s.items[key] = s.order.PushFront(&entry{key: key, src: src, dst: dst, res: res})
	if s.order.Len() > s.cap {
		last := s.order.Back()
		s.order.Remove(last)
		delete(s.items, last.Value.(*entry).key)
	}
}

// joinFlight attaches to the in-flight computation for (src, dst), or
// registers a new one with the caller as leader.
func (s *shard) joinFlight(key, src, dst uint64) (*flight, flightRole) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fl, ok := s.flights[key]; ok {
		if fl.src != src || fl.dst != dst {
			return nil, flightBypass
		}
		fl.waiters++
		return fl, flightFollower
	}
	fl := &flight{src: src, dst: dst, done: make(chan struct{})}
	s.flights[key] = fl
	return fl, flightLeader
}

// resolveFlight publishes the leader's outcome and releases followers.
// The identity check matters under Purge: a purge replaces the flight
// table, and a post-purge request may have registered a NEW flight
// under this key — the old leader must release its own followers
// without tearing down the new flight.
func (s *shard) resolveFlight(key uint64, fl *flight, res compactroute.Result, err error) {
	s.mu.Lock()
	if s.flights[key] == fl {
		delete(s.flights, key)
	}
	s.mu.Unlock()
	fl.res, fl.err = res, err
	close(fl.done)
}

// purge resets the shard: cached entries and flight registrations are
// dropped (the flight objects themselves stay live for their leaders
// to resolve). The fresh maps deliberately carry NO capacity hint:
// purge runs inside the hot-swap pause, and pre-sizing a large
// quota's buckets (newShard's job on the cold path) costs around a
// millisecond at default capacity — the budget the entire swap must
// stay under. Post-purge inserts re-grow the maps gradually instead.
func (s *shard) purge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen.Add(1)
	s.items = make(map[uint64]*list.Element)
	s.order.Init()
	s.flights = make(map[uint64]*flight)
}

func (s *shard) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}
