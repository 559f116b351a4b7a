// Command routebench regenerates the reproduction's experiment tables
// (T1–T10, F1–F2; see DESIGN.md §2 and EXPERIMENTS.md) and the
// harness's own performance experiments — P1 (parallel query sweep),
// D1 (dynamic-topology churn: rebuild latency, swap pause, staleness),
// D2 (failure resilience: delivery and stretch under transient
// link/node loss, raw vs best-of-both and flap damping), S1 (sharded
// serving tier: cluster throughput, tail latency, coordinated cut-over
// pause vs shard count) — and measures the
// build-once/route-many split the persistence layer enables. -json
// switches every experiment table to machine-readable JSON Lines (one
// object per table), the format the BENCH_*.json perf trajectory
// files record.
//
// Usage:
//
//	routebench -all                         # every experiment, full sizes
//	routebench -exp T2                      # one experiment
//	routebench -exp T1 -quick -json         # smoke sizes, JSON output
//	routebench -save net.crsc -n 2000 -k 4  # pay the build, persist it
//	routebench -save ft.crsc -scheme fulltable -n 500
//	routebench -load net.crsc -queries 1e5  # measure pure query cost
//
// -save builds any persistable registry kind (-scheme; default
// paper); -load serves whatever kind the file holds.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"compactroute"
	"compactroute/internal/bench"
	"compactroute/internal/serve"
	"compactroute/internal/workload"
)

func main() {
	exp := flag.String("exp", "", "experiment id (one of "+strings.Join(bench.IDs(), ", ")+")")
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "smoke-test sizes")
	jsonOut := flag.Bool("json", false, "emit experiment results as JSON Lines (one object per table) instead of text tables")
	seed := flag.Uint64("seed", 1, "seed for all randomized constructions")
	saveFile := flag.String("save", "", "build a scheme (see -scheme/-n/-k/-p/-sfactor) and persist it to this file, reporting build vs save cost")
	loadFile := flag.String("load", "", "load a persisted scheme and benchmark query throughput, reporting load vs query cost")
	kind := flag.String("scheme", "paper", "registry kind to build for -save (persistable kinds only; see compactroute.Kinds)")
	n := flag.Int("n", 2000, "node count for -save")
	k := flag.Int("k", 4, "trade-off parameter for -save")
	p := flag.Float64("p", 0, "gnp edge probability for -save (0: 8/n)")
	sfactor := flag.Float64("sfactor", 0.25, "landmark S-set constant for -save")
	queries := flag.Float64("queries", 1e5, "queries to run for -load")
	workers := flag.Int("workers", 0, "concurrent query workers for -load (0: GOMAXPROCS)")
	pattern := flag.String("pattern", "uniform", "workload pattern for -load queries (uniform, zipf, gravity, local, adversarial)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "routebench:", err)
		os.Exit(1)
	}
	// ^C stops the sweep between measurement units instead of letting a
	// multi-minute experiment run to completion after the user gave up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := bench.Config{Quick: *quick, Seed: *seed, JSON: *jsonOut}
	switch {
	case *saveFile != "":
		if err := buildAndSave(*saveFile, *kind, *n, *k, *p, *sfactor, *seed); err != nil {
			fail(err)
		}
	case *loadFile != "":
		if err := loadAndQuery(*loadFile, int(*queries), *workers, *seed, workload.Pattern(*pattern)); err != nil {
			fail(err)
		}
	case *all:
		if err := bench.RunAll(ctx, os.Stdout, cfg); err != nil {
			fail(err)
		}
	case *exp != "":
		r, ok := bench.Experiments[strings.ToUpper(*exp)]
		if !ok {
			fmt.Fprintf(os.Stderr, "routebench: unknown experiment %q (have %s)\n",
				*exp, strings.Join(bench.IDs(), ", "))
			os.Exit(2)
		}
		if err := r(ctx, os.Stdout, cfg); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// buildAndSave pays the one-time construction cost for a registry kind
// and persists the result, reporting where the time went — the
// numerator of the build-once/route-many trade.
func buildAndSave(path, kind string, n, k int, p, sfactor float64, seed uint64) error {
	if p <= 0 {
		p = 8 / float64(n)
	}
	if info, ok := compactroute.LookupKind(kind); !ok {
		return fmt.Errorf("unknown scheme kind %q (have %s)", kind, strings.Join(compactroute.Kinds(), ", "))
	} else if !info.Persistable {
		return fmt.Errorf("kind %q has no persistent form; persistable kinds: %s",
			kind, strings.Join(compactroute.PersistableKinds(), ", "))
	}
	t0 := time.Now()
	net := compactroute.RandomNetwork(seed, n, p, compactroute.UniformWeights(1, 8))
	metricTime := time.Since(t0)
	t1 := time.Now()
	s, err := compactroute.Build(net, compactroute.Config{Kind: kind, K: k, Seed: seed, SFactor: sfactor})
	if err != nil {
		return err
	}
	buildTime := time.Since(t1)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t2 := time.Now()
	if err := compactroute.Save(f, s); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	saveTime := time.Since(t2)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("built %s over gnp(n=%d, p=%.4f): max table %d bits/node\n", s.Name(), n, p, s.MaxTableBits())
	fmt.Printf("  metric (APSP)   %12v\n", metricTime.Round(time.Millisecond))
	fmt.Printf("  construction    %12v\n", buildTime.Round(time.Millisecond))
	fmt.Printf("  serialization   %12v  (%d bytes → %s)\n", saveTime.Round(time.Millisecond), st.Size(), path)
	return nil
}

// loadAndQuery measures the recurring side: deserialization once, then
// sustained query throughput through the serving pool under a named
// workload pattern.
func loadAndQuery(path string, queries, workers int, seed uint64, pattern workload.Pattern) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	s, err := compactroute.Load(f)
	f.Close()
	if err != nil {
		return err
	}
	loadTime := time.Since(t0)
	nn := s.Network().N()
	fmt.Printf("loaded %s (kind %s, %d nodes) in %v — no APSP, no construction\n",
		s.Name(), s.Kind(), nn, loadTime.Round(time.Millisecond))

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	wopts := workload.Options{Seed: seed}
	if pattern == workload.Adversarial {
		s.Network().EnsureMetric() // stretch ranking needs d(u,v)
		// Memoized: every worker's stream ranks the same shared
		// candidate set, so each pair should be routed once, not once
		// per worker.
		type pair struct{ u, v compactroute.NodeID }
		var mu sync.Mutex
		memo := make(map[pair]float64)
		wopts.Rank = func(u, v compactroute.NodeID) float64 {
			mu.Lock()
			score, ok := memo[pair{u, v}]
			mu.Unlock()
			if ok {
				return score
			}
			// MetricKnown guards the ranking: an unknown stretch must
			// rank as uninteresting, not as optimal.
			if res, err := s.Route(u, v); err == nil && res.Delivered && res.MetricKnown {
				score = res.Stretch()
			}
			mu.Lock()
			memo[pair{u, v}] = score
			mu.Unlock()
			return score
		}
	}
	pool := serve.NewPool(serve.RouterFunc(s.RouteByNameCtx), workers)

	if queries < 1 {
		return fmt.Errorf("routebench: -queries must be ≥ 1, got %d", queries)
	}
	if workers > queries {
		workers = queries
	}
	// One deterministic stream per worker: shared seed (same pattern
	// structure) with a per-worker fork (distinct draw sequences).
	streams := make([]*workload.Stream, workers)
	for w := range streams {
		o := wopts
		o.Fork = uint64(w)
		if streams[w], err = workload.New(pattern, s.Network().Graph(), o); err != nil {
			return err
		}
	}
	t1 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		per := queries / workers
		if w < queries%workers {
			per++ // spread the remainder so exactly `queries` run
		}
		wg.Add(1)
		go func(w, per int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q := streams[w].Next()
				if _, err := pool.Route(context.Background(), q.SrcName, q.DstName); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, per)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(t1)
	st := pool.Stats()
	fmt.Printf("ran %d %s queries with %d workers in %v: %.0f queries/sec\n",
		st.Requests, pattern, workers, elapsed.Round(time.Millisecond),
		float64(st.Requests)/elapsed.Seconds())
	return nil
}
