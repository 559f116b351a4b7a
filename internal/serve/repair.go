package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"compactroute"
	"compactroute/internal/dynamic"
	"compactroute/internal/obs"
	"compactroute/internal/routeerr"
)

// ErrUnreachable wraps every route the fault overlay blocks: the
// scheme produced a path, but a failed link or node sits on every
// candidate (or an endpoint itself is down). See routeerr.
var ErrUnreachable = routeerr.ErrUnreachable

// RoutePathFunc is the traced counterpart of RouterFunc: it returns
// the traversed path as external names (source first) alongside the
// result, so the repair layer can hold the walk against the fault
// overlay. The facade's Dynamic.RoutePathByNameCtx has this shape once
// its kind is bound.
type RoutePathFunc func(ctx context.Context, srcName, dstName uint64) (compactroute.Result, []uint64, error)

// RepairOptions configures a Repairer. The zero value is a pure
// fault-view enforcer: no best-of-both, no damping, routes checked
// against the overlay and blocked ones reported as ErrUnreachable.
type RepairOptions struct {
	// BestOfBoth routes src→dst and dst→src concurrently and serves
	// the cheaper usable direction (the yggdrasil treesim mitigation:
	// the two greedy walks see different parts of the graph, so one
	// often dodges a fault the other walks into). Ties — and equal
	// effective costs — go to the forward direction, which keeps the
	// choice deterministic for a fixed fault view and damp table.
	BestOfBoth bool
	// DampPenalty is the starting cost penalty added per recently
	// failed element on a path (flap damping: an element that just
	// failed is distrusted for a while even after it recovers). The
	// penalty decays exponentially with DampHalfLife; 0 disables
	// damping.
	DampPenalty float64
	// DampHalfLife is the decay half-life; 0 means 30s.
	DampHalfLife time.Duration
	// Now is the clock, injectable so decay is testable; nil means
	// time.Now.
	Now func() time.Time
}

// dampKey identifies a damped element: an unordered name pair for an
// edge, or {name, name} for a node (self-pairs cannot collide with
// edges — self-loops are rejected at every ingress).
type dampKey [2]uint64

// Repairer is the fault-aware routing layer: it implements Router, so
// it slots directly under a Pool, and wraps a path-returning route
// with (a) a transient fault view routes are held against, (b)
// optional best-of-both-directions selection, and (c) an optional
// flap-damping table that penalizes recently failed elements for a
// decaying window. It is safe for concurrent use.
//
// The fault view is a dynamic.FaultSet fed by the mutation path
// through Observe (internal/server passes every accepted batch in);
// because faults change what a query answers, the owner must Purge any
// result cache above this layer whenever Observe reports a change — a
// cached "delivered" from before a failure is exactly the stale answer
// the repair layer exists to prevent.
type Repairer struct {
	route RoutePathFunc
	opts  RepairOptions

	mu     sync.RWMutex
	faults *dynamic.FaultSet
	damp   map[dampKey]time.Time // element -> last failure time
}

// NewRepairer wraps route with the repair layer.
func NewRepairer(route RoutePathFunc, o RepairOptions) *Repairer {
	if o.DampHalfLife <= 0 {
		o.DampHalfLife = 30 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return &Repairer{
		route:  route,
		opts:   o,
		faults: dynamic.NewFaultSet(),
		damp:   make(map[dampKey]time.Time),
	}
}

func pairKey(u, v uint64) [2]uint64 {
	if u > v {
		u, v = v, u
	}
	return [2]uint64{u, v}
}

// Observe projects accepted mutations onto the fault view and
// reports whether it changed, i.e. whether a cached answer above this
// layer may now be stale. Damping follows the same events: a failure
// stamps its element, a recovery keeps the stamp (distrusting a link
// that just flapped is the whole point of damping), and a permanent
// removal clears the pair's stamp — the element is gone, not down,
// and a later re-add starts life up and undamped.
func (r *Repairer) Observe(ms ...dynamic.Mutation) bool {
	now := r.opts.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	changed := false
	for _, m := range ms {
		if r.faults.Observe(m) {
			changed = true
		}
		switch m.Op {
		case dynamic.OpFailEdge:
			r.stampLocked(dampKey(pairKey(m.U, m.V)), now)
		case dynamic.OpFailNode:
			r.stampLocked(dampKey{m.Name, m.Name}, now)
		case dynamic.OpRemoveEdge:
			delete(r.damp, dampKey(pairKey(m.U, m.V)))
		}
	}
	return changed
}

// stampLocked records a failure instant and opportunistically sweeps
// entries decayed past relevance (10 half-lives ≈ a 1/1024 penalty),
// bounding the table by the recent-failure working set. Caller holds
// r.mu exclusively; now is read outside the lock (the clock is a
// func-typed option, and exclusive locks are not held across those).
func (r *Repairer) stampLocked(k dampKey, now time.Time) {
	horizon := now.Add(-10 * r.opts.DampHalfLife)
	for old, t := range r.damp {
		if t.Before(horizon) {
			delete(r.damp, old)
		}
	}
	r.damp[k] = now
}

// FaultStats is a point-in-time snapshot of the repair layer's state.
type FaultStats struct {
	DownNodes int `json:"down_nodes"`
	DownEdges int `json:"down_edges"`
	Damped    int `json:"damped"`
}

// Stats snapshots the fault view.
func (r *Repairer) Stats() FaultStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return FaultStats{DownNodes: len(r.faults.DownNodes()), DownEdges: len(r.faults.DownEdges()), Damped: len(r.damp)}
}

// leg is one direction's outcome.
type leg struct {
	res  compactroute.Result
	path []uint64
	err  error
}

// RouteByName implements Router. It routes forward (and, under
// BestOfBoth, backward concurrently), evaluates each delivered path
// against the fault view, and serves the usable direction with the
// lowest effective cost (path cost + decayed damping penalties); ties
// prefer forward. A query whose endpoints are down, or whose every
// delivered path crosses a down element, wraps ErrUnreachable. A
// query nothing delivered for on clear paths passes through unchanged
// — an unknown destination is still the name-independent model's
// honest non-delivery, not an outage.
func (r *Repairer) RouteByName(ctx context.Context, srcName, dstName uint64) (compactroute.Result, error) {
	res, _, err := r.RoutePathByName(ctx, srcName, dstName)
	return res, err
}

// RoutePathByName is RouteByName plus the served walk (external names,
// source first) — nil when nothing was served. The path lets callers
// (experiments, tests) see WHICH direction won and what it crossed.
func (r *Repairer) RoutePathByName(ctx context.Context, srcName, dstName uint64) (compactroute.Result, []uint64, error) {
	var rev chan leg
	if r.opts.BestOfBoth && srcName != dstName {
		rev = make(chan leg, 1)
		// The reverse walk is advisory: shadow the trace so its hops
		// do not interleave with the forward walk's recorded path.
		rctx := obs.WithTrace(ctx, nil)
		go func() {
			res, path, err := r.route(rctx, dstName, srcName)
			rev <- leg{res: res, path: path, err: err}
		}()
	}
	fres, fpath, ferr := r.route(ctx, srcName, dstName)
	fwd := leg{res: fres, path: fpath, err: ferr}
	legs := []leg{fwd}
	if rev != nil {
		legs = append(legs, <-rev)
	}
	res, path, best, blocked, err := r.choose(srcName, dstName, legs)
	switch {
	case errors.Is(err, ErrUnreachable) && blocked > 0:
		obs.Mark(ctx, "repair", "verdict", "blocked")
	case errors.Is(err, ErrUnreachable):
		obs.Mark(ctx, "repair", "verdict", "endpoint-down")
	case best == 1:
		obs.Mark(ctx, "repair", "verdict", "reverse-won")
	case best == 0 && rev != nil:
		obs.Mark(ctx, "repair", "verdict", "forward-won")
	}
	return res, path, err
}

// choose evaluates the candidate legs under one read of the fault
// view. legs[0] is the forward direction and wins ties. Alongside
// the chosen route it reports which leg won (-1: none) and how many
// delivered legs the overlay blocked, so the caller can record the
// repair verdict in the request trace.
func (r *Repairer) choose(srcName, dstName uint64, legs []leg) (compactroute.Result, []uint64, int, int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.faults.NodeDown(srcName) || r.faults.NodeDown(dstName) {
		return compactroute.Result{}, nil, -1, 0, fmt.Errorf("serve: %d→%d: endpoint down: %w", srcName, dstName, ErrUnreachable)
	}
	now := r.opts.Now()
	best := -1
	bestEff := math.Inf(1)
	blocked := 0
	for i, l := range legs {
		if l.err != nil || !l.res.Delivered {
			continue
		}
		if r.faults.Blocks(l.path) {
			blocked++
			continue
		}
		if eff := l.res.Cost + r.penaltyLocked(l.path, now); eff < bestEff {
			best, bestEff = i, eff
		}
	}
	if best >= 0 {
		return legs[best].res, legs[best].path, best, blocked, nil
	}
	if blocked > 0 {
		return compactroute.Result{}, nil, -1, blocked, fmt.Errorf("serve: %d→%d: every delivered path crosses a down element: %w", srcName, dstName, ErrUnreachable)
	}
	// Nothing usable and nothing blocked: pass the forward outcome
	// through — scheme-level non-delivery and routing errors keep
	// their own taxonomy.
	return legs[0].res, legs[0].path, -1, 0, legs[0].err
}

// penaltyLocked sums the decayed damping penalty over the path's
// elements. Caller holds r.mu (read).
func (r *Repairer) penaltyLocked(path []uint64, now time.Time) float64 {
	if r.opts.DampPenalty <= 0 || len(r.damp) == 0 {
		return 0
	}
	total := 0.0
	add := func(k dampKey) {
		t, ok := r.damp[k]
		if !ok {
			return
		}
		age := now.Sub(t)
		if age < 0 {
			age = 0
		}
		total += r.opts.DampPenalty * math.Exp2(-float64(age)/float64(r.opts.DampHalfLife))
	}
	for i, n := range path {
		add(dampKey{n, n})
		if i > 0 {
			add(dampKey(pairKey(path[i-1], n)))
		}
	}
	return total
}
