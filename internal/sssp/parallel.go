package sssp

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"compactroute/internal/graph"
)

// AllPairsParallel computes From for every node across a worker pool.
// Each source's Dijkstra run is independent, so the result is
// identical to AllPairs; the speedup is near-linear in cores for the
// O(n·(n+m)·log n) preprocessing sweep every scheme build starts with.
// workers ≤ 0 selects GOMAXPROCS.
func AllPairsParallel(g *graph.Graph, workers int) []*Result {
	all, _ := AllPairsParallelCtx(context.Background(), g, workers)
	return all
}

// AllPairsParallelCtx is AllPairsParallel honoring cancellation: a
// worker checks ctx before each row it computes, so a canceled sweep
// stops once the rows in flight finish, and returns a wrapped
// ctx.Err() only after every worker has returned.
func AllPairsParallelCtx(ctx context.Context, g *graph.Graph, workers int) ([]*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sssp: all pairs: %w", err)
	}
	out := make([]*Result, g.N())
	ParallelFor(len(out), workers, func(v int) {
		if ctx.Err() == nil {
			out[v] = From(g, graph.NodeID(v))
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sssp: all pairs: %w", err)
	}
	return out, nil
}

// ParallelFor runs fn(i) for i in [0, n) over a bounded worker pool.
// It is the generic fan-out used by the scheme builders (landmark
// trees, per-scale covers), whose units of work are independent and
// deterministic given their index.
func ParallelFor(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
