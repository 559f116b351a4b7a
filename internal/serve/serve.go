// Package serve is the concurrent query-serving layer over a built
// routing scheme: a bounded worker pool that turns unbounded HTTP
// concurrency into a fixed routing parallelism, and (repair.go) the
// fault-aware layer a dynamic topology routes through.
//
// The pool keeps no answers. A compact routing scheme spends its
// budget at construction time (Õ(n^{1/k}) bits per node, APSP, tree
// covers) precisely so that a query is a cheap walk over those
// tables: a few microseconds of a read that costs tens of
// microseconds over HTTP. A cache of answers large enough to matter
// holds about as many bytes as the tables themselves, and every swap
// and every fault would have to purge it. Measured on perfbench's
// cluster-read (two dynamic paper shards behind a front-door; 2 vCPU
// AMD EPYC, Go 1.24, GOMAXPROCS 2; ten alternating 40 s pairs), a
// 64k-entry cache per shard answered about half the reads, coalesced
// at most 2 of ~1.4M per run, and held ~10 MiB per shard against 9.4
// MiB of routing tables. Without it every pair read faster, with a
// lower p99 and a smaller heap; the medians moved from 35.7k to 39.5k
// routes/s, from 131 µs to 112 µs and from 80.8 MiB to 60.3 MiB. So
// every read walks the scheme on the version it reports, and a swap or
// a fault change has nothing above the repair layer to invalidate.
//
// The answer is the facade's compactroute.Result, exactly as the
// Router returned it: one answer type from the scheme walk to the
// HTTP handler.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"compactroute"
	"compactroute/internal/obs"
	"compactroute/internal/routeerr"
)

// ErrSaturated wraps every rejection: a query that could not be
// admitted before its context expired, or whose caller left mid-walk.
// Callers classify with errors.Is; the underlying context error
// (Canceled or DeadlineExceeded) stays in the chain too.
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
// request counts in Requests; the ones that fail also count in
// exactly one of Errors or Rejected.
type Stats struct {
	Requests uint64 // queries admitted
	Errors   uint64 // routing errors
	Rejected uint64 // canceled while waiting for a worker or mid-walk
	InFlight int64  // currently routing
	Workers  int    // pool size

	// Hits, Purges and Coalesced are always zero: the pool has no
	// result cache. perfbench still reads them, and they go when the
	// benchmark drops its cache metrics.
	Hits      uint64 `json:"-"`
	Purges    uint64 `json:"-"`
	Coalesced uint64 `json:"-"`
}

// Pool serves routing queries through a bounded worker pool. It is
// safe for concurrent use.
type Pool struct {
	router Router
	slots  chan struct{}

	requests atomic.Uint64
	errors   atomic.Uint64
	rejected atomic.Uint64
	inFlight atomic.Int64
}

// NewPool builds a pool over r that walks at most workers routes at
// once; workers ≤ 0 means GOMAXPROCS.
func NewPool(r Router, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{router: r, slots: make(chan struct{}, workers)}
}

// Route answers one query on a worker slot. It blocks while all
// workers are busy; cancel ctx to give up waiting.
//
//crlint:hotpath
func (p *Pool) Route(ctx context.Context, srcName, dstName uint64) (compactroute.Result, error) {
	p.requests.Add(1)
	if err := ctx.Err(); err != nil {
		p.rejected.Add(1)
		return compactroute.Result{}, fmt.Errorf("serve: %w: %w", ErrSaturated, err)
	}
	return p.compute(ctx, srcName, dstName)
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
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			p.rejected.Add(1)
			return compactroute.Result{}, fmt.Errorf("serve: %w: %w", ErrSaturated, err)
		}
		p.errors.Add(1)
		return compactroute.Result{}, err
	}
	obs.SpanN(ctx, "pool", "compute", "", start, int64(res.Hops))
	return res, nil
}

// Stats returns a point-in-time snapshot of the counters. Requests is
// read last: a query counts as admitted before any outcome counts it,
// so a query admitted and resolved mid-read can raise Requests but
// never push the outcomes past it.
func (p *Pool) Stats() Stats {
	s := Stats{
		Errors:   p.errors.Load(),
		Rejected: p.rejected.Load(),
		InFlight: p.inFlight.Load(),
		Workers:  cap(p.slots),
	}
	s.Requests = p.requests.Load()
	return s
}
