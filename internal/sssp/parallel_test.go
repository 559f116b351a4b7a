package sssp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"compactroute/internal/gen"
)

func TestAllPairsParallelMatchesSequential(t *testing.T) {
	g := gen.Gnp(1, 120, 0.06, gen.Uniform(1, 7))
	seq := AllPairs(g)
	for _, workers := range []int{1, 2, 4, 13} {
		par := AllPairsParallel(g, workers)
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: length mismatch", workers)
		}
		for u := range seq {
			for v := range seq[u].Dist {
				if math.Abs(seq[u].Dist[v]-par[u].Dist[v]) > 1e-12 {
					t.Fatalf("workers=%d: dist(%d,%d) differs", workers, u, v)
				}
				if seq[u].Parent[v] != par[u].Parent[v] {
					t.Fatalf("workers=%d: parent(%d,%d) differs", workers, u, v)
				}
			}
			for i := range seq[u].Order {
				if seq[u].Order[i] != par[u].Order[i] {
					t.Fatalf("workers=%d: order differs at source %d", workers, u)
				}
			}
		}
	}
}

// TestAllPairsParallelCtxMatchesAllPairs: under a live context the
// sweep returns exactly the AllPairs rows, field by field and indexed
// by source, at every worker count.
func TestAllPairsParallelCtxMatchesAllPairs(t *testing.T) {
	g := gen.Gnp(7, 80, 8.0/80, gen.Uniform(1, 8))
	want := AllPairs(g)
	for _, workers := range []int{1, 2, 3, 4, 8, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := AllPairsParallelCtx(context.Background(), g, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d rows, want %d", len(got), len(want))
			}
			for u, w := range want {
				r := got[u]
				if r.Source != w.Source || !slices.Equal(r.Dist, w.Dist) || !slices.Equal(r.Parent, w.Parent) ||
					!slices.Equal(r.ParentPort, w.ParentPort) || !slices.Equal(r.Order, w.Order) {
					t.Fatalf("row %d differs from AllPairs", u)
				}
			}
		})
	}
}

func TestAllPairsParallelDefaultWorkers(t *testing.T) {
	g := gen.Ring(2, 40, gen.Unit())
	par := AllPairsParallel(g, 0) // GOMAXPROCS
	if len(par) != g.N() {
		t.Fatal("default workers wrong length")
	}
	for u := range par {
		if par[u] == nil {
			t.Fatalf("source %d not computed", u)
		}
	}
}

// cancelOnErr cancels its context on the k-th Err call, so the
// cancellation lands mid-sweep at the same point on every run.
type cancelOnErr struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int32
	k      int32
}

func (c *cancelOnErr) Err() error {
	if c.calls.Add(1) == c.k {
		c.cancel()
	}
	return c.Context.Err()
}

// TestAllPairsParallelCancellation: a sweep canceled mid-way returns a
// wrapped context.Canceled and no rows, at one worker and at several,
// and leaves no worker running.
func TestAllPairsParallelCancellation(t *testing.T) {
	g := gen.Gnp(9, 120, 0.06, gen.Uniform(1, 7))
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		base, cancel := context.WithCancel(context.Background())
		ctx := &cancelOnErr{Context: base, cancel: cancel, k: 5}
		rows, err := AllPairsParallelCtx(ctx, g, workers)
		cancel()
		if !errors.Is(err, context.Canceled) || rows != nil {
			t.Fatalf("workers=%d: got %d rows, err %v; want none and a wrapped context.Canceled", workers, len(rows), err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutine leak after cancellation: %d before, %d after", before, got)
	}
}

// TestAllPairsParallelPreCanceled: an already-canceled context runs no
// Dijkstra at all.
func TestAllPairsParallelPreCanceled(t *testing.T) {
	g := gen.Ring(2, 40, gen.Unit())
	base, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := &cancelOnErr{Context: base, cancel: cancel}
	if _, err := AllPairsParallelCtx(ctx, g, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want wrapped context.Canceled", err)
	}
	if n := ctx.calls.Load(); n != 1 {
		t.Fatalf("ctx checked %d times, want once before any row", n)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 257
		var hits [n]int32
		ParallelFor(n, workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	called := false
	ParallelFor(0, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func BenchmarkAllPairsSequential(b *testing.B) {
	g := gen.Gnp(3, 512, 8.0/512, gen.Uniform(1, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllPairs(g)
	}
}

func BenchmarkAllPairsParallel(b *testing.B) {
	g := gen.Gnp(3, 512, 8.0/512, gen.Uniform(1, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllPairsParallel(g, 0)
	}
}
