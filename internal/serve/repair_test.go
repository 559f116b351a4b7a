package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"compactroute"
)

// pathRouter is a fixed table of directional paths with unit-ish
// costs: route(src,dst) returns the registered path or non-delivery.
type pathRouter struct {
	mu    sync.Mutex
	calls map[[2]uint64]int
	walks int
	paths map[[2]uint64]struct {
		path []uint64
		cost float64
	}
}

func newPathRouter() *pathRouter {
	return &pathRouter{
		calls: make(map[[2]uint64]int),
		paths: make(map[[2]uint64]struct {
			path []uint64
			cost float64
		}),
	}
}

func (p *pathRouter) set(src, dst uint64, cost float64, path ...uint64) {
	p.paths[[2]uint64{src, dst}] = struct {
		path []uint64
		cost float64
	}{path, cost}
}

func (p *pathRouter) route(ctx context.Context, src, dst uint64) (compactroute.Result, []uint64, error) {
	p.mu.Lock()
	p.calls[[2]uint64{src, dst}]++
	p.mu.Unlock()
	e, ok := p.paths[[2]uint64{src, dst}]
	if !ok {
		return compactroute.Result{}, nil, nil // honest non-delivery
	}
	return compactroute.Result{Delivered: true, Cost: e.cost, Hops: len(e.path) - 1}, e.path, nil
}

// walk is route without the path, the repairer's quiescent walk. It
// counts its calls apart from route's.
func (p *pathRouter) walk(ctx context.Context, src, dst uint64) (compactroute.Result, error) {
	p.mu.Lock()
	p.walks++
	p.mu.Unlock()
	e, ok := p.paths[[2]uint64{src, dst}]
	if !ok {
		return compactroute.Result{}, nil
	}
	return compactroute.Result{Delivered: true, Cost: e.cost, Hops: len(e.path) - 1}, nil
}

func (p *pathRouter) walkCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.walks
}

func (p *pathRouter) callCount(src, dst uint64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls[[2]uint64{src, dst}]
}

func TestRepairerPassThroughWhenClear(t *testing.T) {
	pr := newPathRouter()
	pr.set(1, 2, 5, 1, 3, 2)
	r := NewRepairer(pr.route, pr.walk, RepairOptions{})
	res, err := r.RouteByName(context.Background(), 1, 2)
	if err != nil || !res.Delivered || res.Cost != 5 {
		t.Fatalf("clear route: %+v, %v", res, err)
	}
	// Nothing down and one leg: the pathless walk answers.
	if pr.walkCount() != 1 || pr.callCount(1, 2) != 0 {
		t.Fatalf("quiescent view: %d pathless walks, %d path walks, want 1 and 0", pr.walkCount(), pr.callCount(1, 2))
	}
	// No BestOfBoth: the reverse direction must never be walked.
	if pr.callCount(2, 1) != 0 {
		t.Fatal("reverse walked without BestOfBoth")
	}
	// Honest non-delivery passes through without error.
	res, err = r.RouteByName(context.Background(), 1, 9)
	if err != nil || res.Delivered {
		t.Fatalf("unknown destination: %+v, %v", res, err)
	}
}

func TestRepairerBlocksDownElements(t *testing.T) {
	pr := newPathRouter()
	pr.set(1, 2, 5, 1, 3, 2)
	r := NewRepairer(pr.route, pr.walk, RepairOptions{})

	r.Observe(compactroute.MutFailEdge(3, 1)) // orientation must not matter
	if _, err := r.RouteByName(context.Background(), 1, 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("down edge on path: err = %v", err)
	}
	if pr.walkCount() != 0 {
		t.Fatal("a route after Observe(fail) took the unchecked walk")
	}
	r.Observe(compactroute.MutRecoverEdge(1, 3))
	if _, err := r.RouteByName(context.Background(), 1, 2); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if pr.walkCount() != 1 {
		t.Fatalf("recovered view: %d pathless walks, want 1", pr.walkCount())
	}

	r.Observe(compactroute.MutFailNode(3)) // interior node down
	if _, err := r.RouteByName(context.Background(), 1, 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("down interior node: err = %v", err)
	}
	r.Observe(compactroute.MutRecoverNode(3))

	r.Observe(compactroute.MutFailNode(2)) // endpoint down: unreachable without any walk
	if _, err := r.RouteByName(context.Background(), 1, 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("down endpoint: err = %v", err)
	}
	r.Observe(compactroute.MutRecoverNode(2))

	// A permanent removal clears fault state: a removed-then-readded
	// link is up.
	r.Observe(compactroute.MutFailEdge(1, 3))
	r.Observe(compactroute.MutRemoveEdge(1, 3))
	if st := r.Stats(); st.DownEdges != 0 {
		t.Fatalf("removing a down pair left it down: %+v", st)
	}
	if _, err := r.RouteByName(context.Background(), 1, 2); err != nil {
		t.Fatalf("after drop: %v", err)
	}
}

func TestRepairerBestOfBothServesCheaperClearDirection(t *testing.T) {
	pr := newPathRouter()
	pr.set(1, 2, 10, 1, 3, 2) // forward via 3
	pr.set(2, 1, 7, 2, 4, 1)  // reverse via 4, cheaper
	r := NewRepairer(pr.route, pr.walk, RepairOptions{BestOfBoth: true})

	res, path, err := r.RoutePathByName(context.Background(), 1, 2)
	if err != nil || res.Cost != 7 {
		t.Fatalf("cheaper reverse not served: %+v, %v", res, err)
	}
	if len(path) != 3 || path[1] != 4 {
		t.Fatalf("served path = %v, want the reverse walk via 4", path)
	}

	// Forward blocked, reverse clear: the reverse rescues the query.
	r.Observe(compactroute.MutFailNode(3))
	if res, _, err = r.RoutePathByName(context.Background(), 1, 2); err != nil || res.Cost != 7 {
		t.Fatalf("reverse rescue: %+v, %v", res, err)
	}
	// Both blocked: unreachable.
	r.Observe(compactroute.MutFailNode(4))
	if _, err := r.RouteByName(context.Background(), 1, 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("both directions blocked: err = %v", err)
	}
	r.Observe(compactroute.MutRecoverNode(3))
	r.Observe(compactroute.MutRecoverNode(4))

	// Equal effective cost ties to forward (determinism).
	pr2 := newPathRouter()
	pr2.set(5, 6, 9, 5, 7, 6)
	pr2.set(6, 5, 9, 6, 8, 5)
	r2 := NewRepairer(pr2.route, pr2.walk, RepairOptions{BestOfBoth: true})
	for range 8 {
		_, path, err := r2.RoutePathByName(context.Background(), 5, 6)
		if err != nil || path[1] != 7 {
			t.Fatalf("tie not broken toward forward: %v, %v", path, err)
		}
	}
	// Self-routes never spawn a reverse walk.
	if _, err := r2.RouteByName(context.Background(), 5, 5); err != nil {
		t.Fatal(err)
	}
	if pr2.callCount(5, 5) != 1 {
		t.Fatalf("self-route walked %d times", pr2.callCount(5, 5))
	}
}

func TestRepairerFlapDampingDecays(t *testing.T) {
	now := time.Unix(1000, 0)
	var clockMu sync.Mutex
	clock := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
	advance := func(d time.Duration) { clockMu.Lock(); now = now.Add(d); clockMu.Unlock() }

	pr := newPathRouter()
	pr.set(1, 2, 10, 1, 3, 2) // forward, cheaper
	pr.set(2, 1, 12, 2, 4, 1) // reverse, dearer but never flapped
	r := NewRepairer(pr.route, pr.walk, RepairOptions{
		BestOfBoth:   true,
		DampPenalty:  8,
		DampHalfLife: 10 * time.Second,
		Now:          clock,
	})

	// Flap the forward link: fail + recover. It is up again — but
	// damped, so the clean reverse direction wins (10+8 > 12).
	r.Observe(compactroute.MutFailEdge(1, 3))
	r.Observe(compactroute.MutRecoverEdge(1, 3))
	if st := r.Stats(); st.DownEdges != 0 || st.Damped != 1 {
		t.Fatalf("after flap: %+v", st)
	}
	res, err := r.RouteByName(context.Background(), 1, 2)
	if err != nil || res.Cost != 12 {
		t.Fatalf("damped element not avoided: %+v, %v", res, err)
	}
	// Three half-lives later the penalty has decayed to 1: 10+1 beats
	// 12 and the forward direction is trusted again.
	advance(30 * time.Second)
	res, err = r.RouteByName(context.Background(), 1, 2)
	if err != nil || res.Cost != 10 {
		t.Fatalf("decayed penalty still steering: %+v, %v", res, err)
	}
	// Decayed entries are swept on the next stamp (10 half-lives).
	advance(100 * 10 * time.Second)
	r.Observe(compactroute.MutFailNode(9))
	if st := r.Stats(); st.Damped != 1 {
		t.Fatalf("stale damp entries not swept: %+v", st)
	}
}

func TestRepairerErrorPassThrough(t *testing.T) {
	boom := errors.New("boom")
	for _, o := range []RepairOptions{{BestOfBoth: true}, {}} {
		r := NewRepairer(func(ctx context.Context, src, dst uint64) (compactroute.Result, []uint64, error) {
			return compactroute.Result{}, nil, fmt.Errorf("route %d→%d: %w", src, dst, boom)
		}, func(ctx context.Context, src, dst uint64) (compactroute.Result, error) {
			return compactroute.Result{}, fmt.Errorf("walk %d→%d: %w", src, dst, boom)
		}, o)
		if _, err := r.RouteByName(context.Background(), 1, 2); !errors.Is(err, boom) {
			t.Fatalf("%+v: routing error rewritten: %v", o, err)
		}
	}
}

// TestRepairerObserve pins what one batch of accepted mutations does to
// the repair layer's projected view: what stays down and damped
// afterwards.
func TestRepairerObserve(t *testing.T) {
	pr := newPathRouter()
	r := NewRepairer(pr.route, pr.walk, RepairOptions{DampPenalty: 1})
	steps := []struct {
		name string
		ms   []compactroute.Mutation
		want FaultStats
	}{
		{"permanent churn", []compactroute.Mutation{
			compactroute.MutSetWeight(1, 2, 3),
			compactroute.MutAddEdge(1, 4, 2),
			compactroute.MutAddNode(9, 1, 1),
		}, FaultStats{}},
		{"remove an up pair", []compactroute.Mutation{compactroute.MutRemoveEdge(1, 4)}, FaultStats{}},
		{"fail edge stamps", []compactroute.Mutation{compactroute.MutFailEdge(1, 2)}, FaultStats{DownEdges: 1, Damped: 1}},
		{"recover edge keeps the stamp", []compactroute.Mutation{compactroute.MutRecoverEdge(2, 1)}, FaultStats{Damped: 1}},
		{"remove a damped up pair clears the stamp", []compactroute.Mutation{compactroute.MutRemoveEdge(1, 2)}, FaultStats{}},
		{"fail node stamps", []compactroute.Mutation{compactroute.MutFailNode(3)}, FaultStats{DownNodes: 1, Damped: 1}},
		{"recover node keeps the stamp", []compactroute.Mutation{compactroute.MutRecoverNode(3)}, FaultStats{Damped: 1}},
		{"remove a down pair", []compactroute.Mutation{
			compactroute.MutFailEdge(5, 6),
			compactroute.MutRemoveEdge(6, 5),
		}, FaultStats{Damped: 1}},
		{"one transient op in a churn batch", []compactroute.Mutation{
			compactroute.MutSetWeight(1, 2, 4),
			compactroute.MutFailNode(7),
		}, FaultStats{DownNodes: 1, Damped: 2}},
	}
	for _, st := range steps {
		r.Observe(st.ms...)
		if got := r.Stats(); got != st.want {
			t.Errorf("%s: stats %+v, want %+v", st.name, got, st.want)
		}
	}
}
