package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"compactroute"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/obs"
	"compactroute/internal/serve"
	"compactroute/internal/stats"
)

// RunO1 measures the cost of observability on the serving hot path:
// the same single-threaded query loop through a cache-disabled pool
// (every query walks the scheme) in three arms — tracing off, the
// production-default 1-in-64 sampling, and every request traced. The
// instrumentation is identical in all arms (it ships in the binary
// either way); only the sampling decision differs. The fully-traced
// arm pins down the per-traced-request cost as a signal far above
// machine noise; dividing by the sampling rate gives the amortized
// 1/64 overhead the <3% acceptance bar applies to, cross-checked by
// the directly measured (noisier) 1/64 paired median. The allocs/op
// columns are exact: spans allocate only on traced requests.
func RunO1(ctx context.Context, w io.Writer, cfg Config) error {
	n, k, iters := 1024, 3, 60000
	if cfg.Quick {
		n, iters = 256, 6000
	}
	g := gen.Gnp(cfg.Seed, n, 8/float64(n), gen.Uniform(1, 8))
	net := compactroute.WrapGraph(g)
	s, err := compactroute.Build(net, compactroute.Config{Kind: compactroute.KindTZ, K: k, Seed: cfg.Seed})
	if err != nil {
		return fmt.Errorf("O1: %w", err)
	}
	// Cache off: every query pays the full scheme walk, the path the
	// per-hop instrumentation rides. One worker: the delta measured is
	// per-query cost, not scheduler noise.
	pool := serve.NewPool(serve.RouterFunc(s.RouteByNameCtx), serve.Options{Workers: 1, CacheSize: -1})

	// Deterministic query stream (splitmix64 over the seed).
	names := make([]uint64, n)
	for i := 0; i < n; i++ {
		names[i] = g.Name(graph.NodeID(i))
	}

	// mode is one arm of the paired measurement. Each arm owns its own
	// generator state seeded identically, so both route the exact same
	// pair sequence; wall time and mallocs accumulate per arm.
	type mode struct {
		name    string
		tracer  *obs.Tracer
		x       uint64 // splitmix64 state
		wallNs  int64
		mallocs uint64
		iters   int
	}
	next := func(m *mode) uint64 {
		m.x += 0x9e3779b97f4a7c15
		z := m.x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var ms runtime.MemStats
	runChunk := func(m *mode, chunk int) (int64, error) {
		// Collect before the timer starts so one arm's garbage (the
		// fully-traced arm allocates 6× the others) cannot charge its
		// GC debt — assist pacing, the next cycle's mark work — to
		// whichever arm happens to run next.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < chunk; i++ {
			src := names[next(m)%uint64(n)]
			dst := names[next(m)%uint64(n)]
			rctx := ctx
			tr := m.tracer.Begin("")
			if tr != nil {
				rctx = obs.WithTrace(ctx, tr)
			}
			if _, err := pool.Route(rctx, src, dst); err != nil {
				return 0, fmt.Errorf("O1: route %#x→%#x: %w", src, dst, err)
			}
			if tr != nil {
				tr.Finish("/route", 200)
				m.tracer.Store(tr)
			}
		}
		wall := time.Since(t0).Nanoseconds()
		m.wallNs += wall
		runtime.ReadMemStats(&ms)
		m.mallocs += ms.Mallocs - m0
		m.iters += chunk
		return wall, nil
	}

	// Paired chunks: the arms alternate every chunk inside ONE run, so
	// machine-level drift (frequency scaling, a noisy neighbor, GC
	// debt) lands on both arms nearly equally instead of biasing
	// whichever whole-run happened to go second. The allocs/op column
	// is exact regardless. A warm-up chunk per arm absorbs cache and
	// allocator cold starts.
	newArms := func() []*mode {
		return []*mode{
			{name: "off", tracer: obs.NewTracer(1024, 0), x: cfg.Seed},
			{name: "1/64", tracer: obs.NewTracer(1024, 64), x: cfg.Seed},
			{name: "1/1", tracer: obs.NewTracer(1024, 1), x: cfg.Seed},
		}
	}
	chunk := 200
	for _, m := range newArms() { // warm-up: caches, allocator, JIT-free but branch-warm
		if _, err := runChunk(m, chunk); err != nil {
			return err
		}
	}
	// Fresh arms for the measured pass (same seeds, zeroed counters).
	// The per-chunk deltas use the MEDIAN of paired wall ratios, not
	// the ratio of totals: a GC cycle or preemption landing inside one
	// chunk is a huge outlier in that chunk's pair, and the median
	// discards it. The arms rotate through every position in the round
	// so the warm-follower advantage (identical pair sequences re-walk
	// hot CPU caches) is handed to each arm equally.
	arms := newArms()
	off, on64, on1 := arms[0], arms[1], arms[2]
	var ratio64, ratio1 stats.Sample
	for done, r := 0, 0; done < iters; done, r = done+chunk, r+1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		walls := make(map[*mode]int64, len(arms))
		for i := range arms {
			m := arms[(r+i)%len(arms)]
			wall, err := runChunk(m, chunk)
			if err != nil {
				return err
			}
			walls[m] = wall
		}
		ratio64.Add(float64(walls[on64]) / float64(walls[off]))
		ratio1.Add(float64(walls[on1]) / float64(walls[off]))
	}

	tb := stats.NewTable("O1: tracing overhead on the serving hot path",
		"mode", "iters", "qps", "ns/op", "allocs/op", "traced")
	row := func(m *mode) (qps, nsPerOp, allocs float64) {
		qps = float64(m.iters) / (float64(m.wallNs) / 1e9)
		nsPerOp = float64(m.wallNs) / float64(m.iters)
		allocs = float64(m.mallocs) / float64(m.iters)
		return
	}
	for _, m := range arms {
		qps, nsPerOp, allocs := row(m)
		tb.AddRow(m.name, m.iters, qps, nsPerOp, allocs, int64(m.tracer.Sampled()))
	}
	_, _, offAllocs := row(off)
	_, _, on64Allocs := row(on64)
	_, _, on1Allocs := row(on1)
	// Per-traced-request cost, from the fully-traced arm: a >100%
	// signal a busy machine cannot drown. The production-default 1/64
	// figure is that cost amortized over the sampling rate — the
	// headline the <3% acceptance bar applies to. The directly
	// measured 1/64 median rides along for comparison, but on a noisy
	// single-core box its confidence interval is wider than the effect.
	perTraced := (ratio1.Percentile(50) - 1) * 100
	tb.AddRow("traced req cost%", on1.iters, perTraced, perTraced, on1Allocs-offAllocs, int64(on1.tracer.Sampled()))
	tb.AddRow("1/64 amortized%", on64.iters, perTraced/64, (ratio64.Percentile(50)-1)*100,
		on64Allocs-offAllocs, int64(on64.tracer.Sampled()))
	return cfg.emit(w, tb,
		"expected shape: 1/64 amortized% qps (traced-request cost / 64) under 3; the ns/op column of that row is the direct paired-median 1/64 measurement (noisy on busy machines)",
		"sampling is one atomic add on the untraced path; spans and hop paths allocate only on traced requests")
}
