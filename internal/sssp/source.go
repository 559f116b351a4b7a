package sssp

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"compactroute/internal/graph"
)

// Source streams per-source shortest-path results, one Result per
// node, always in ascending source order. It is the construction-side
// counterpart of the metric: scheme builders that only need one source
// row at a time (next-hop emission, ball radii, closest-landmark
// queries) consume a Source in O(n) working memory, where the
// materialized []*Result they historically received is Θ(n²).
//
// Contract:
//
//   - Each invokes fn once per source, src = 0..N()-1, strictly in
//     that order, regardless of how results are computed internally.
//   - Results handed to fn are immutable and may be retained by the
//     consumer (retaining a field, e.g. Parent, keeps only that slice
//     alive — the point of streaming is that most rows are dropped).
//   - A Source is re-iterable: builders may call Each multiple times
//     (a streaming implementation recomputes; a materialized one
//     re-reads). Passes see identical results because From is
//     deterministic.
//   - Each returns a wrapped ctx.Err() when the context is canceled
//     mid-stream, or the first error fn returned, and in either case
//     releases every internal worker before returning.
type Source interface {
	// Graph returns the graph the shortest paths are computed over.
	Graph() *graph.Graph
	// N returns the number of sources (the graph's node count).
	N() int
	// Each streams the per-source results in source order.
	Each(ctx context.Context, fn func(r *Result) error) error
}

// Materialized wraps precomputed all-pairs results (AllPairs output)
// as a Source. Builders running over an already-paid metric — the
// facade's Network keeps one for stretch reporting — stream it for
// free, with no recomputation.
func Materialized(g *graph.Graph, all []*Result) Source {
	return &materialized{g: g, all: all}
}

type materialized struct {
	g   *graph.Graph
	all []*Result
}

func (m *materialized) Graph() *graph.Graph { return m.g }
func (m *materialized) N() int              { return len(m.all) }

func (m *materialized) Each(ctx context.Context, fn func(r *Result) error) error {
	for _, r := range m.all {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sssp: source stream: %w", err)
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Results exposes the underlying slice, letting Materialize return an
// already-materialized source without copying.
func (m *materialized) Results() []*Result { return m.all }

// Streamed returns a Source that computes each row on demand, fanning
// single-source Dijkstra runs across workers (≤ 0 means GOMAXPROCS)
// while delivering results to the consumer in deterministic source
// order. At most ~2×workers rows are in flight at once, so a full
// build holds O(workers · n) shortest-path state instead of Θ(n²).
func Streamed(g *graph.Graph, workers int) Source {
	return &streamed{g: g, workers: workers}
}

type streamed struct {
	g       *graph.Graph
	workers int
}

func (s *streamed) Graph() *graph.Graph { return s.g }
func (s *streamed) N() int              { return s.g.N() }

func (s *streamed) Each(ctx context.Context, fn func(r *Result) error) error {
	n := s.g.N()
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial reference path (also the workers=1 baseline B1 times).
		for u := 0; u < n; u++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sssp: source stream: %w", err)
			}
			if err := fn(From(s.g, graph.NodeID(u))); err != nil {
				return err
			}
		}
		return nil
	}

	// Workers claim source indices in order and publish finished rows
	// into a reorder window; the caller's goroutine delivers them in
	// source order. The window caps claimed-but-undelivered rows, so
	// a slow consumer cannot accumulate unbounded results. Claimed
	// rows are always computed and published (workers check for
	// cancellation only between claims), which keeps the delivery loop
	// deadlock-free: the next row to deliver is either pending in the
	// window or being computed by a live worker.
	window := 2 * workers
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		next    int // next source index to claim
		deliver int // next source index to hand to fn
		ready   = make(map[int]*Result, window)
		stopped bool
	)
	stop := func() {
		mu.Lock()
		stopped = true
		cond.Broadcast()
		mu.Unlock()
	}

	// Wake the delivery loop promptly on cancellation.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			stop()
		case <-watchDone:
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for !stopped && next < n && next-deliver >= window {
					cond.Wait()
				}
				if stopped || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				r := From(s.g, graph.NodeID(i))
				mu.Lock()
				ready[i] = r
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	defer wg.Wait()
	defer stop()

	for deliver < n {
		mu.Lock()
		for ready[deliver] == nil && !stopped {
			cond.Wait()
		}
		if stopped {
			mu.Unlock()
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sssp: source stream: %w", err)
			}
			return fmt.Errorf("sssp: source stream stopped")
		}
		r := ready[deliver]
		delete(ready, deliver)
		deliver++
		cond.Broadcast()
		mu.Unlock()
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sssp: source stream: %w", err)
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Materialize collects a Source into the historical []*Result form for
// builders that genuinely need random access across rows (the paper's
// scheme: its decomposition keeps the metric for lazy ball queries
// throughout construction and verification, and its covers read their
// balls off it). An already-materialized source is returned as-is,
// without copying or recomputation, so the builder shares the caller's
// rows — a dynamic topology's version 0 over a warm network keeps the
// network's own metric this way — and every holder must treat them as
// read-only.
func Materialize(ctx context.Context, src Source) ([]*Result, error) {
	// The already-materialized fast path must still honor ctx, or a
	// canceled build over a warm network would sail through to the
	// (expensive) downstream construction.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sssp: source stream: %w", err)
	}
	if all := Rows(src); all != nil {
		return all, nil
	}
	out := make([]*Result, 0, src.N())
	err := src.Each(ctx, func(r *Result) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Rows returns the rows of an already-materialized source, shared and
// read-only, or nil for a source that computes its rows as it streams.
// A builder that reads its balls off the metric when one is at hand,
// and searches for them otherwise, asks here without forcing a
// streamed source to materialize.
func Rows(src Source) []*Result {
	if m, ok := src.(interface{ Results() []*Result }); ok {
		return m.Results()
	}
	return nil
}
