// Command loadgen replays workload patterns against a serving tier
// over HTTP, measuring sustained throughput and the latency
// distribution — the denominator of the build-once/route-many trade,
// observed from the client side.
//
//	routesim -n 2000 -k 4 -save net.crsc
//	routed -scheme net.crsc -addr :8347 &
//	loadgen -scheme net.crsc -targets http://localhost:8347 \
//	        -pattern uniform,zipf,gravity,local -queries 20000 -concurrency 32
//
// -targets accepts a comma-separated list of base URLs: one routed
// daemon, several (requests round-robin across them), or a single
// routefront front-door that partitions the name space over a shard
// cluster. All traffic speaks the versioned /v1 API through the
// client package, so the same invocation drives either tier.
//
// The scheme file gives loadgen the node names to query (the daemon
// and the generator must be handed the same file); -graph accepts a
// topology file (gio text) instead, pairing with `routed -scheme
// <kind> -graph`. No metric is computed unless the adversarial
// pattern is requested, which ranks candidate pairs by locally
// measured stretch and replays the worst (and needs -scheme). Each
// worker drives its own deterministic query stream, so a run is
// reproducible end to end given -seed.
//
// # Churn
//
// Against a dynamic daemon (routed serving a registry kind) or a
// front-door, loadgen interleaves topology churn with the replay:
// -mutations names a trace file (cmd/graphgen -mutations), and one
// mutation is POSTed to /v1/mutate every -mutate-every completed
// queries, with a rebuild triggered via /v1/rebuild every
// -rebuild-every mutations — the client-side view of mutate → rebuild
// → hot swap under live traffic:
//
//	graphgen -family gnp -n 500 -mutations 200 -mutout churn.mut > topo.txt
//	routed -scheme tz -graph topo.txt &
//	loadgen -graph topo.txt -mutations churn.mut -queries 20000
//
// Churn requires a single target: mutations are stateful, and only a
// front-door can fan them out consistently — point -targets at one
// daemon or one routefront. The trace is consumed in order across
// patterns, and a final synchronous rebuild flushes whatever is still
// pending; the churn summary reports mutations applied, rebuilds
// triggered, and POST failures (zero on a healthy daemon).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compactroute"
	"compactroute/client"
	"compactroute/internal/dynamic"
	"compactroute/internal/gio"
	"compactroute/internal/graph"
	"compactroute/internal/stats"
	"compactroute/internal/workload"
)

func main() {
	schemeFile := flag.String("scheme", "", "scheme file written by compactroute.Save; source of the node names to query (this or -graph is required)")
	graphFile := flag.String("graph", "", "topology file (gio text format) as the node-name source instead of -scheme")
	mutationsFile := flag.String("mutations", "", "mutation trace file (cmd/graphgen -mutations): interleave topology churn with the replay (single target only)")
	mutateEvery := flag.Int("mutate-every", 50, "completed queries between mutation POSTs (churn mode)")
	rebuildEvery := flag.Int("rebuild-every", 25, "mutations between rebuild triggers (churn mode; 0: final rebuild only)")
	targets := flag.String("targets", "http://localhost:8347", "comma-separated base URLs: routed daemons or one routefront front-door")
	patternList := flag.String("pattern", "uniform,zipf,gravity,local", "comma-separated workload patterns (add adversarial to hammer worst-stretch pairs; costs one local APSP)")
	queries := flag.Int("queries", 10000, "requests per pattern")
	concurrency := flag.Int("concurrency", 16, "concurrent client connections")
	seed := flag.Uint64("seed", 1, "seed for all query streams")
	warmup := flag.Int("warmup", 0, "untimed warmup requests per pattern")
	zipfS := flag.Float64("zipf-s", 0, "zipf skew exponent (0: 1.1)")
	localHops := flag.Int("local-hops", 0, "hop radius for the local pattern (0: 2)")
	candidates := flag.Int("candidates", 0, "candidate pairs the adversarial pattern scores (0: 4096)")
	keep := flag.Int("keep", 0, "worst pairs the adversarial pattern replays (0: 64)")
	hist := flag.Int("hist", 0, "print a latency histogram with this many buckets (0: off)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if (*schemeFile == "") == (*graphFile == "") {
		fmt.Fprintln(os.Stderr, "loadgen: exactly one of -scheme or -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	if *queries < 1 || *concurrency < 1 {
		fail(fmt.Errorf("-queries and -concurrency must be ≥ 1"))
	}
	urls := splitTargets(*targets)
	if len(urls) == 0 {
		fail(fmt.Errorf("-targets names no base URL"))
	}
	var (
		scheme *compactroute.Scheme // nil with -graph
		g      *graph.Graph
	)
	if *schemeFile != "" {
		f, err := os.Open(*schemeFile)
		if err != nil {
			fail(err)
		}
		scheme, err = compactroute.Load(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		g = scheme.Network().Graph()
	} else {
		f, err := os.Open(*graphFile)
		if err != nil {
			fail(err)
		}
		g, err = gio.Read(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	}

	var patterns []workload.Pattern
	for _, p := range strings.Split(*patternList, ",") {
		patterns = append(patterns, workload.Pattern(strings.TrimSpace(p)))
	}
	base := workload.Options{
		Seed:       *seed,
		ZipfS:      *zipfS,
		LocalHops:  *localHops,
		Candidates: *candidates,
		Keep:       *keep,
	}
	clients := newClients(urls)
	fmt.Printf("loadgen: %s, %d nodes, %d queries/pattern, concurrency %d\n",
		strings.Join(urls, ", "), g.N(), *queries, *concurrency)

	var churner *churn
	if *mutationsFile != "" {
		if len(clients) > 1 {
			fail(fmt.Errorf("churn needs a single target (one daemon or one front-door), got %d", len(clients)))
		}
		mf, err := os.Open(*mutationsFile)
		if err != nil {
			fail(err)
		}
		muts, err := dynamic.ReadTrace(mf)
		mf.Close()
		if err != nil {
			fail(err)
		}
		if *mutateEvery < 1 {
			fail(fmt.Errorf("-mutate-every must be ≥ 1"))
		}
		churner = &churn{
			client: clients[0], muts: muts, timeout: *timeout,
			mutateEvery: *mutateEvery, rebuildEvery: *rebuildEvery,
		}
		churner.start()
		fmt.Printf("loadgen: churning %d mutations (1 per %d queries, rebuild per %d mutations)\n",
			len(muts), *mutateEvery, *rebuildEvery)
	}

	// The status-class columns ride at the END of the row: downstream
	// parsers (the smoke script's awk) address the early columns by
	// position, so new columns must only ever append.
	table := stats.NewTable("latency by workload pattern",
		"pattern", "queries", "errors", "unreach", "qps", "p50", "p95", "p99", "max",
		"p95-409", "p95-502", "p95-503")
	var histograms []string
	for _, p := range patterns {
		streams, err := patternStreams(p, g, scheme, *concurrency, base)
		if err != nil {
			fail(err)
		}
		var counter *atomic.Uint64
		if churner != nil {
			counter = &churner.counter
		}
		rep, err := replay(clients, streams, *queries, *warmup, *timeout, counter)
		if err != nil {
			fail(fmt.Errorf("%s: %w", p, err))
		}
		table.AddRow(string(p), rep.queries, rep.failed, rep.unreachable,
			fmt.Sprintf("%.0f", rep.qps()),
			fmtLatency(rep.latency.Percentile(50)),
			fmtLatency(rep.latency.Percentile(95)),
			fmtLatency(rep.latency.Percentile(99)),
			fmtLatency(rep.latency.Max()),
			p95OrDash(rep.lat409), p95OrDash(rep.lat502), p95OrDash(rep.lat503))
		if *hist > 0 {
			histograms = append(histograms,
				fmt.Sprintf("-- %s --\n%s", p, rep.latency.Histogram(*hist, fmtLatency)))
		}
	}
	fmt.Println(table)
	for _, h := range histograms {
		fmt.Println(h)
	}
	if churner != nil {
		if err := churner.finish(); err != nil {
			fail(fmt.Errorf("churn: %w", err))
		}
		fmt.Println(churner.summary())
	}
}

// splitTargets parses the -targets list, dropping empty entries.
func splitTargets(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// newClients builds one API client per target. Each call is bounded
// by its own context deadline (see bounded), not by HTTP.Timeout,
// which net/http enforces on the client's own transport with a timer,
// channels and a goroutine per request.
func newClients(urls []string) []*client.Client {
	clients := make([]*client.Client, len(urls))
	for i, u := range urls {
		clients[i] = client.New(u)
	}
	return clients
}

// bounded returns ctx with the per-request timeout as its deadline;
// a timeout ≤ 0 leaves the call unbounded, as HTTP.Timeout 0 did.
func bounded(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, timeout)
}

// patternStreams builds one deterministic stream per worker: every
// worker shares the seed (so hotspots, candidate sets, and balls are
// the same targets) and gets a distinct Fork (so the draw sequences
// differ and the aggregate traffic keeps the pattern's shape). The
// adversarial pattern ranks its shared candidate set once through a
// memoizing ranker, which needs a local scheme (-scheme, not -graph).
func patternStreams(p workload.Pattern, g *graph.Graph, s *compactroute.Scheme, workers int, base workload.Options) ([]*workload.Stream, error) {
	if p == workload.Adversarial {
		if s == nil {
			return nil, fmt.Errorf("the adversarial pattern ranks pairs by locally measured stretch and needs -scheme, not -graph")
		}
		s.Network().EnsureMetric() // stretch ranking needs d(u,v)
		base.Rank = memoRanker(s)
	}
	streams := make([]*workload.Stream, workers)
	for w := range streams {
		o := base
		o.Fork = uint64(w)
		st, err := workload.New(p, g, o)
		if err != nil {
			return nil, err
		}
		streams[w] = st
	}
	return streams, nil
}

// churn is the mutation side of a dynamic replay: a single goroutine
// that walks the trace in order, POSTing one mutation to /v1/mutate
// every mutateEvery completed queries (paced by the counter the
// replay workers increment) and scheduling a rebuild every
// rebuildEvery mutations. Against a front-door the rebuild is a
// coordinated cluster cut-over. A POST failure stops the churn —
// mutations are stateful, so replaying the rest of the trace after a
// gap could only produce spurious 422s.
type churn struct {
	client       *client.Client
	muts         []dynamic.Mutation
	timeout      time.Duration // bounds each POST
	mutateEvery  int
	rebuildEvery int

	counter  atomic.Uint64 // completed queries, fed by replay workers
	stop     chan struct{}
	done     chan struct{}
	applied  int
	rebuilds int
	err      error
}

func (c *churn) start() {
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.run()
}

func (c *churn) run() {
	defer close(c.done)
	ctx := context.Background()
	for c.applied < len(c.muts) {
		select {
		case <-c.stop:
			return
		default:
		}
		if c.counter.Load() < uint64(c.applied+1)*uint64(c.mutateEvery) {
			time.Sleep(time.Millisecond)
			continue
		}
		mctx, cancel := bounded(ctx, c.timeout)
		_, c.err = c.client.Mutate(mctx, c.muts[c.applied])
		cancel()
		if c.err != nil {
			return
		}
		c.applied++
		if c.rebuildEvery > 0 && c.applied%c.rebuildEvery == 0 {
			rctx, cancel := bounded(ctx, c.timeout)
			_, c.err = c.client.Rebuild(rctx)
			cancel()
			if c.err != nil {
				return
			}
			c.rebuilds++
		}
	}
}

// finish stops the churn goroutine and flushes whatever is still
// pending with one synchronous rebuild, so the daemon ends the run on
// a version that has absorbed every applied mutation.
func (c *churn) finish() error {
	close(c.stop)
	<-c.done
	if c.err != nil {
		return c.err
	}
	if c.applied > 0 {
		ctx, cancel := bounded(context.Background(), c.timeout)
		_, err := c.client.RebuildWait(ctx)
		cancel()
		if err != nil {
			return err
		}
		c.rebuilds++
	}
	return nil
}

func (c *churn) summary() string {
	return fmt.Sprintf("churn: %d/%d mutations applied, %d rebuilds triggered",
		c.applied, len(c.muts), c.rebuilds)
}

// memoRanker scores a pair by its locally measured stretch, caching
// scores so identical per-worker candidate sets are routed once.
func memoRanker(s *compactroute.Scheme) func(u, v graph.NodeID) float64 {
	type pair struct{ u, v graph.NodeID }
	var mu sync.Mutex
	memo := make(map[pair]float64)
	return func(u, v graph.NodeID) float64 {
		mu.Lock()
		score, ok := memo[pair{u, v}]
		mu.Unlock()
		if ok {
			return score
		}
		res, err := s.Route(u, v)
		if err != nil || !res.Delivered || !res.MetricKnown {
			// Unroutable pairs are not interesting adversaries, and an
			// unknown stretch (MetricKnown false) must not score as the
			// sentinel "optimal" 1 — EnsureMetric runs before ranking,
			// so this is belt-and-braces against reordering.
			score = 0
		} else {
			score = res.Stretch()
		}
		mu.Lock()
		memo[pair{u, v}] = score
		mu.Unlock()
		return score
	}
}

// report summarizes one pattern's replay. Error responses carry their
// own latency samples per status class — a 503 answered in 100µs
// (back-pressure shedding fast) and a 503 answered at the timeout
// (a wedged daemon) are different failures, and folding them into the
// success percentiles would poison both views.
type report struct {
	queries     int // requests issued (excluding warmup)
	failed      int // API-error responses (4xx/5xx other than 502)
	unreachable int // 502s: the shard's fault overlay blocked the query
	elapsed     time.Duration
	latency     *stats.Sample // seconds, successful (2xx) requests only
	lat409      *stats.Sample // version-skew / static-scheme conflicts
	lat502      *stats.Sample // fault-overlay unreachable
	lat503      *stats.Sample // back-pressure shedding
}

func (r report) qps() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.queries) / r.elapsed.Seconds()
}

// replay drives one worker per stream against the targets — each
// worker striding round-robin across the client list — and merges the
// per-worker latency samples. The warmup phase completes on every
// worker before the clock starts, so neither throughput nor latency
// includes it. Transport-level errors abort the run; API error
// statuses (a saturated daemon answering 503) are counted and the
// replay continues. A non-nil counter receives one increment per
// completed timed query — the churn pacing signal. Each read is
// bounded by timeout (none when ≤ 0).
func replay(clients []*client.Client, streams []*workload.Stream, queries, warmup int, timeout time.Duration, counter *atomic.Uint64) (report, error) {
	workers := len(streams)
	if workers > queries {
		workers = queries
		streams = streams[:workers]
	}
	type workerResult struct {
		lat         stats.Sample
		lat409      stats.Sample
		lat502      stats.Sample
		lat503      stats.Sample
		failed      int
		unreachable int
		err         error
	}
	results := make([]workerResult, workers)
	ctx := context.Background()
	// split spreads a request budget so the worker totals are exact.
	split := func(total, w int) int {
		per := total / workers
		if w < total%workers {
			per++
		}
		return per
	}
	phase := func(warm bool) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			total := queries
			if warm {
				total = warmup
			}
			wg.Add(1)
			go func(w, per int) {
				defer wg.Done()
				r := &results[w]
				for i := 0; i < per && r.err == nil; i++ {
					q := streams[w].Next()
					cl := clients[(w*7+i)%len(clients)]
					t0 := time.Now()
					rctx, cancel := bounded(ctx, timeout)
					_, err := cl.RouteByName(rctx, q.SrcName, q.DstName)
					cancel()
					var apiErr *client.Error
					switch {
					case err != nil && !errors.As(err, &apiErr):
						r.err = err // transport failure: abort
					case warm: // untimed, uncounted
					case err != nil:
						// 502 is not the daemon misbehaving — a transient
						// fault blocked the query. Tallied apart so a
						// resilience run reads delivery loss directly.
						dur := time.Since(t0).Seconds()
						switch {
						case client.IsStatus(err, 502):
							r.unreachable++
							r.lat502.Add(dur)
						case client.IsStatus(err, 409):
							r.failed++
							r.lat409.Add(dur)
						case client.IsStatus(err, 503):
							r.failed++
							r.lat503.Add(dur)
						default:
							r.failed++
						}
					default:
						r.lat.Add(time.Since(t0).Seconds())
						if counter != nil {
							counter.Add(1)
						}
					}
				}
			}(w, split(total, w))
		}
		wg.Wait()
	}
	if warmup > 0 {
		phase(true)
	}
	start := time.Now()
	phase(false)
	rep := report{queries: queries, elapsed: time.Since(start),
		latency: &stats.Sample{}, lat409: &stats.Sample{}, lat502: &stats.Sample{}, lat503: &stats.Sample{}}
	for w := range results {
		if results[w].err != nil {
			return report{}, results[w].err
		}
		rep.failed += results[w].failed
		rep.unreachable += results[w].unreachable
		rep.latency.Merge(&results[w].lat)
		rep.lat409.Merge(&results[w].lat409)
		rep.lat502.Merge(&results[w].lat502)
		rep.lat503.Merge(&results[w].lat503)
	}
	return rep, nil
}

// fmtLatency renders a latency in seconds as a duration.
func fmtLatency(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(time.Microsecond).String()
}

// p95OrDash renders a status-class p95, or "-" when the class never
// occurred (a healthy run shows dashes across the breakdown columns).
func p95OrDash(s *stats.Sample) string {
	if s.N() == 0 {
		return "-"
	}
	return fmtLatency(s.Percentile(95))
}
