package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compactroute"
)

// echoRouter returns a deterministic result derived from the pair and
// counts how many times it was actually invoked.
type echoRouter struct {
	calls atomic.Uint64
	block chan struct{} // when non-nil, Route blocks until closed
}

func (e *echoRouter) RouteByName(ctx context.Context, src, dst uint64) (compactroute.Result, error) {
	e.calls.Add(1)
	if e.block != nil {
		<-e.block
	}
	if dst == 0xdead {
		return compactroute.Result{}, errors.New("unknown destination")
	}
	return compactroute.Result{Delivered: true, Cost: float64(src + dst), Hops: int(src % 7)}, nil
}

func TestPoolCachesDeterministicResults(t *testing.T) {
	r := &echoRouter{}
	p := NewPool(r, Options{Workers: 4, CacheSize: 128})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := p.Route(ctx, 10, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered || res.Cost != 30 {
			t.Fatalf("wrong result %+v", res)
		}
	}
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("router invoked %d times, want 1 (cache)", got)
	}
	st := p.Stats()
	if st.Requests != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPoolCacheDisabled(t *testing.T) {
	r := &echoRouter{}
	p := NewPool(r, Options{Workers: 2, CacheSize: -1})
	for i := 0; i < 3; i++ {
		if _, err := p.Route(context.Background(), 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.calls.Load(); got != 3 {
		t.Fatalf("router invoked %d times, want 3 (cache off)", got)
	}
}

func TestPoolErrorsAreNotCached(t *testing.T) {
	r := &echoRouter{}
	p := NewPool(r, Options{Workers: 2, CacheSize: 64})
	for i := 0; i < 2; i++ {
		if _, err := p.Route(context.Background(), 1, 0xdead); err == nil {
			t.Fatal("expected error")
		}
	}
	if got := r.calls.Load(); got != 2 {
		t.Fatalf("router invoked %d times, want 2 (errors not cached)", got)
	}
	if st := p.Stats(); st.Errors != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	r := &echoRouter{block: make(chan struct{})}
	const workers = 3
	p := NewPool(r, Options{Workers: workers, CacheSize: -1})

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct pairs so caching could not collapse them anyway.
			p.Route(context.Background(), uint64(i), uint64(1000+i))
		}(i)
	}
	// Wait until the pool saturates, then verify it never exceeds the cap.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().InFlight < workers {
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := p.Stats().InFlight; got != workers {
		t.Fatalf("in-flight %d, want exactly %d", got, workers)
	}
	close(r.block)
	wg.Wait()
	if got := p.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight %d after drain", got)
	}
}

func TestPoolContextCancellation(t *testing.T) {
	r := &echoRouter{block: make(chan struct{})}
	p := NewPool(r, Options{Workers: 1, CacheSize: -1})
	go p.Route(context.Background(), 1, 2) // occupies the only worker
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.Route(ctx, 3, 4)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	// Both classifications must hold: the typed saturation sentinel for
	// status mapping, and the underlying context error for callers that
	// distinguish cancellation from deadline expiry.
	if !errors.Is(err, ErrSaturated) || !errors.Is(err, context.Canceled) {
		t.Fatalf("rejection error %v lacks ErrSaturated/context.Canceled", err)
	}
	if st := p.Stats(); st.Rejected != 1 {
		t.Fatalf("stats %+v", st)
	}
	close(r.block)
}

func TestLRUEviction(t *testing.T) {
	sh := newShard(2)
	sh.put(1, 10, 11, compactroute.Result{Cost: 1}, sh.generation())
	sh.put(2, 20, 21, compactroute.Result{Cost: 2}, sh.generation())
	sh.get(1, 10, 11) // touch 1 so 2 is the eviction victim
	sh.put(3, 30, 31, compactroute.Result{Cost: 3}, sh.generation())
	if _, ok := sh.get(2, 20, 21); ok {
		t.Fatal("2 should have been evicted")
	}
	for _, k := range []uint64{1, 3} {
		if _, ok := sh.get(k, k*10, k*10+1); !ok {
			t.Fatalf("%d should be resident", k)
		}
	}
}

// TestCollisionReadsAsMiss: two different pairs behind the same folded
// key must never see each other's results.
func TestCollisionReadsAsMiss(t *testing.T) {
	sh := newShard(4)
	sh.put(42, 1, 2, compactroute.Result{Cost: 12}, sh.generation())
	if _, ok := sh.get(42, 3, 4); ok {
		t.Fatal("colliding pair served a foreign result")
	}
	if res, ok := sh.get(42, 1, 2); !ok || res.Cost != 12 {
		t.Fatalf("own pair should still hit: %+v %v", res, ok)
	}
}

func TestPoolConcurrentMixedLoad(t *testing.T) {
	r := &echoRouter{}
	p := NewPool(r, Options{Workers: 4, CacheSize: 256, Shards: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				src, dst := uint64(i%40), uint64((g*i)%40)
				res, err := p.Route(context.Background(), src, dst)
				if err != nil {
					t.Errorf("route %d/%d: %v", src, dst, err)
					return
				}
				if want := float64(src + dst); res.Cost != want {
					t.Errorf("route %d/%d: cost %v want %v", src, dst, res.Cost, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	// Every admitted request lands in exactly one outcome; concurrent
	// identical misses legitimately coalesce onto one computation.
	if st.Requests != 4000 || st.Hits+st.Misses+st.Coalesced != st.Requests || st.Errors+st.Rejected != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.CacheLen > st.CacheCap {
		t.Fatalf("cache overflow: %+v", st)
	}
}

func TestShardDistribution(t *testing.T) {
	p := NewPool(RouterFunc(func(ctx context.Context, src, dst uint64) (compactroute.Result, error) {
		return compactroute.Result{}, nil
	}), Options{Shards: 16, CacheSize: 1 << 12})
	counts := make(map[*shard]int)
	for i := 0; i < 4096; i++ {
		counts[p.shard(cacheKey(uint64(i), uint64(i+1)))]++
	}
	if len(counts) != 16 {
		t.Fatalf("keys landed on %d of 16 shards", len(counts))
	}
	for sh, c := range counts {
		if c > 4096/16*4 {
			t.Fatalf("shard %p got %d of 4096 keys", sh, c)
		}
	}
}

// waitForWaiters polls until the flight for (src, dst) has the given
// number of attached followers.
func waitForWaiters(t *testing.T, p *Pool, src, dst uint64, want int) {
	t.Helper()
	key := cacheKey(src, dst)
	sh := p.shard(key)
	deadline := time.Now().Add(5 * time.Second)
	for {
		sh.mu.Lock()
		fl := sh.flights[key]
		waiters := -1
		if fl != nil {
			waiters = fl.waiters
		}
		sh.mu.Unlock()
		if waiters >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight never reached %d waiters (have %d)", want, waiters)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlightColdBurst: K concurrent identical cold queries must
// perform exactly one underlying route computation — the package's
// "never recompute a route it has already walked" promise under
// concurrency, not just sequentially.
func TestSingleFlightColdBurst(t *testing.T) {
	r := &echoRouter{block: make(chan struct{})}
	p := NewPool(r, Options{Workers: 8, CacheSize: 128})
	const K = 8
	var wg sync.WaitGroup
	results := make([]compactroute.Result, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.Route(context.Background(), 5, 6)
		}(i)
	}
	waitForWaiters(t, p, 5, 6, K-1)
	close(r.block)
	wg.Wait()
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !results[i].Delivered || results[i].Cost != 11 {
			t.Fatalf("request %d got %+v", i, results[i])
		}
	}
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("router invoked %d times for %d identical cold queries, want 1", got, K)
	}
	st := p.Stats()
	if st.Misses != 1 || st.Coalesced != K-1 || st.Hits != 0 {
		t.Fatalf("stats %+v", st)
	}
	// The coalesced result is now cached for everyone else.
	if _, err := p.Route(context.Background(), 5, 6); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("stats after warm query %+v", st)
	}
}

// TestSingleFlightErrorPropagates: a leader's routing error reaches
// every follower, and nothing is cached.
func TestSingleFlightErrorPropagates(t *testing.T) {
	r := &echoRouter{block: make(chan struct{})}
	p := NewPool(r, Options{Workers: 4, CacheSize: 64})
	const K = 5
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Route(context.Background(), 1, 0xdead)
		}(i)
	}
	waitForWaiters(t, p, 1, 0xdead, K-1)
	close(r.block)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("request %d did not see the error", i)
		}
	}
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("router invoked %d times, want 1", got)
	}
	if st := p.Stats(); st.Errors != K || st.Coalesced != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSingleFlightFollowerCancel: a follower honoring its own context
// can give up without disturbing the flight.
func TestSingleFlightFollowerCancel(t *testing.T) {
	r := &echoRouter{block: make(chan struct{})}
	p := NewPool(r, Options{Workers: 2, CacheSize: 64})
	go p.Route(context.Background(), 7, 8) // leader, blocks in the router
	waitForWaiters(t, p, 7, 8, 0)
	ctx, cancel := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		_, err := p.Route(ctx, 7, 8)
		followerErr <- err
	}()
	waitForWaiters(t, p, 7, 8, 1)
	cancel()
	if err := <-followerErr; err == nil {
		t.Fatal("canceled follower returned no error")
	}
	close(r.block)
	if st := p.Stats(); st.Rejected != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSingleFlightLeaderCancelPromotesFollower: when the leader gives
// up waiting for a worker, a follower with a live context must take
// over the computation instead of inheriting the cancellation.
func TestSingleFlightLeaderCancelPromotesFollower(t *testing.T) {
	r := &echoRouter{block: make(chan struct{})}
	p := NewPool(r, Options{Workers: 1, CacheSize: 64})
	// Occupy the only worker slot so the (3,4) leader queues on it.
	go p.Route(context.Background(), 1, 2)
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := p.Route(leaderCtx, 3, 4)
		leaderErr <- err
	}()
	waitForWaiters(t, p, 3, 4, 0) // leader registered its flight
	followerRes := make(chan compactroute.Result, 1)
	followerErr := make(chan error, 1)
	go func() {
		res, err := p.Route(context.Background(), 3, 4)
		followerRes <- res
		followerErr <- err
	}()
	waitForWaiters(t, p, 3, 4, 1) // follower attached
	cancelLeader()
	if err := <-leaderErr; err == nil {
		t.Fatal("canceled leader returned no error")
	}
	close(r.block) // free the worker; the promoted follower computes
	if err := <-followerErr; err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	}
	if res := <-followerRes; !res.Delivered || res.Cost != 7 {
		t.Fatalf("follower result %+v", res)
	}
}

// TestFlightCollisionBypasses: a different pair behind the same folded
// key must not join a foreign flight.
func TestFlightCollisionBypasses(t *testing.T) {
	sh := newShard(4)
	if _, role := sh.joinFlight(42, 1, 2); role != flightLeader {
		t.Fatalf("first pair not leader: %v", role)
	}
	if fl, role := sh.joinFlight(42, 3, 4); role != flightBypass || fl != nil {
		t.Fatalf("colliding pair joined a foreign flight: %v", role)
	}
	if _, role := sh.joinFlight(42, 1, 2); role != flightFollower {
		t.Fatalf("identical pair not follower: %v", role)
	}
}

// TestNoCacheAllocatesNothing: a disabled cache must not pay for
// shards, and single-flight is off with it (every query computes).
func TestNoCacheAllocatesNothing(t *testing.T) {
	p := NewPool(&echoRouter{}, Options{Workers: 2, CacheSize: -1, Shards: 64})
	if p.shards != nil {
		t.Fatalf("disabled cache allocated %d shards", len(p.shards))
	}
	st := p.Stats()
	if !st.CacheOff || st.ShardsLen != 0 || st.CacheCap != 0 || st.CacheLen != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheCapExact: Stats.CacheCap reports the requested capacity,
// not a per-shard rounding of it, and per-shard quotas sum to it.
func TestCacheCapExact(t *testing.T) {
	for _, tc := range []struct {
		size, shards, wantShards int
	}{
		{100, 16, 16}, // 100/16 is fractional: old code reported 112
		{256, 8, 8},
		{4, 16, 4}, // fewer entries than shards: shards clamp down
		{1, 16, 1},
		{65536, 0, 16},
	} {
		p := NewPool(&echoRouter{}, Options{CacheSize: tc.size, Shards: tc.shards})
		st := p.Stats()
		if st.CacheCap != tc.size {
			t.Errorf("size %d shards %d: CacheCap %d, want %d", tc.size, tc.shards, st.CacheCap, tc.size)
		}
		if st.ShardsLen != tc.wantShards {
			t.Errorf("size %d shards %d: %d shards, want %d", tc.size, tc.shards, st.ShardsLen, tc.wantShards)
		}
		total := 0
		for _, sh := range p.shards {
			if sh.cap < 1 {
				t.Errorf("size %d shards %d: zero-quota shard", tc.size, tc.shards)
			}
			total += sh.cap
		}
		if total != tc.size {
			t.Errorf("size %d shards %d: quotas sum to %d", tc.size, tc.shards, total)
		}
	}
}

// TestShortestCostStalenessInvariant documents the cache staleness
// invariant: a result cached while the scheme had no metric keeps
// ShortestCost = 0 even after the metric appears. Serving processes
// must therefore ensure the metric before admitting queries (see the
// package comment and cmd/routed's -metric ordering).
func TestShortestCostStalenessInvariant(t *testing.T) {
	metricReady := false
	p := NewPool(RouterFunc(func(ctx context.Context, src, dst uint64) (compactroute.Result, error) {
		res := compactroute.Result{Delivered: true, Cost: 10}
		if metricReady {
			res.ShortestCost = 5
			res.MetricKnown = true
		}
		return res, nil
	}), Options{Workers: 1, CacheSize: 16})

	cold, err := p.Route(context.Background(), 1, 2)
	if err != nil || cold.ShortestCost != 0 {
		t.Fatalf("pre-metric route: %+v, %v", cold, err)
	}
	metricReady = true // EnsureMetric after the pool is warm: too late
	warm, err := p.Route(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ShortestCost != 0 {
		t.Fatalf("cached entry was refreshed: %+v — the documented invariant changed", warm)
	}
	// A pair never seen before the metric is fine.
	fresh, err := p.Route(context.Background(), 3, 4)
	if err != nil || fresh.ShortestCost != 5 {
		t.Fatalf("post-metric route: %+v, %v", fresh, err)
	}
}

func ExampleRouterFunc() {
	p := NewPool(RouterFunc(func(ctx context.Context, src, dst uint64) (compactroute.Result, error) {
		return compactroute.Result{Delivered: true, Cost: 1}, nil
	}), Options{Workers: 1})
	res, _ := p.Route(context.Background(), 1, 2)
	fmt.Println(res.Delivered)
	// Output: true
}

// TestPurgeEmptiesCache: Purge drops every resident entry, counts in
// Stats, and the next identical query recomputes.
func TestPurgeEmptiesCache(t *testing.T) {
	r := &echoRouter{}
	p := NewPool(r, Options{Workers: 2, CacheSize: 64})
	ctx := context.Background()
	for i := uint64(0); i < 8; i++ {
		if _, err := p.Route(ctx, i, i+100); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.CacheLen != 8 {
		t.Fatalf("resident %d, want 8", st.CacheLen)
	}
	p.Purge()
	st := p.Stats()
	if st.CacheLen != 0 || st.Purges != 1 {
		t.Fatalf("after purge: %+v", st)
	}
	if _, err := p.Route(ctx, 0, 100); err != nil {
		t.Fatal(err)
	}
	if got := r.calls.Load(); got != 9 {
		t.Fatalf("router invoked %d times, want 9 (post-purge recompute)", got)
	}
}

// TestPurgeSuppressesInFlightRepopulation is the single-flight
// interaction the hot-swap path depends on: a computation that was in
// flight when Purge ran may answer its own caller (it resolved the
// old topology at admission), but its result must NOT enter the
// cache — otherwise a post-swap query could read a pre-swap route.
func TestPurgeSuppressesInFlightRepopulation(t *testing.T) {
	r := &echoRouter{block: make(chan struct{})}
	p := NewPool(r, Options{Workers: 4, CacheSize: 64})
	done := make(chan error, 1)
	go func() {
		_, err := p.Route(context.Background(), 5, 6)
		done <- err
	}()
	// Wait until the leader is computing (router invoked), then purge.
	deadline := time.Now().Add(5 * time.Second)
	for r.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started computing")
		}
		time.Sleep(time.Millisecond)
	}
	p.Purge()
	close(r.block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.CacheLen != 0 {
		t.Fatalf("pre-purge in-flight result was cached: %+v", st)
	}
	// The same query now recomputes (a miss, not a hit).
	if _, err := p.Route(context.Background(), 5, 6); err != nil {
		t.Fatal(err)
	}
	if got := r.calls.Load(); got != 2 {
		t.Fatalf("router invoked %d times, want 2", got)
	}
	if st := p.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPurgeDetachesFlights: a request arriving after Purge must lead a
// fresh computation rather than follow a pre-purge leader, and the old
// leader resolving must not tear down the new flight (identity check
// in resolveFlight).
func TestPurgeDetachesFlights(t *testing.T) {
	r := &echoRouter{block: make(chan struct{})}
	p := NewPool(r, Options{Workers: 4, CacheSize: 64})
	oldDone := make(chan error, 1)
	go func() {
		_, err := p.Route(context.Background(), 5, 6)
		oldDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for r.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started computing")
		}
		time.Sleep(time.Millisecond)
	}
	p.Purge()
	newDone := make(chan error, 1)
	go func() {
		_, err := p.Route(context.Background(), 5, 6)
		newDone <- err
	}()
	// The post-purge request must become a leader itself: the router
	// gets a second invocation even though the first never finished.
	for r.calls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("post-purge request coalesced onto a purged flight (calls=%d)", r.calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(r.block)
	if err := <-oldDone; err != nil {
		t.Fatal(err)
	}
	if err := <-newDone; err != nil {
		t.Fatal(err)
	}
	// Old leader's resolve ran after the new flight existed; the new
	// leader's result (same generation as its admission? it started
	// after the purge, so it IS cached) must be resident exactly once.
	st := p.Stats()
	if st.Misses != 2 || st.Coalesced != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.CacheLen != 1 {
		t.Fatalf("resident %d, want 1 (only the post-purge result)", st.CacheLen)
	}
}

// TestPurgeNoCacheIsNoop: Purge on a cacheless pool must not panic or
// count.
func TestPurgeNoCacheIsNoop(t *testing.T) {
	p := NewPool(&echoRouter{}, Options{Workers: 1, CacheSize: -1})
	p.Purge()
	if st := p.Stats(); st.Purges != 0 {
		t.Fatalf("stats %+v", st)
	}
}
