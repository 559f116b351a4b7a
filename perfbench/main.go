// Command perfbench is the repository's end-to-end benchmark. One run
// builds one workload from a seed through the public APIs of the
// serving stack, measures it for a fixed time, checks that every
// answer is correct, and prints its metrics:
//
//	perfbench --workload walk --seed 1 --seconds 10 --trace 0
//	perfbench compare base.txt change.txt
//
// The last line of a run's standard output is one JSON object with
// the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end ones; --trace 1 runs the same workload
// with forced request tracing and prints the per-layer ones instead.
// A run whose correctness gate fails prints correct=false with no
// metrics and exits 1; a run that cannot execute exits 2. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. The lists below
// are the benchmark's contract and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"route_qps", "routes/s"},
	{"route_p50_us", "us"},
	{"route_p99_us", "us"},
	{"ok_ratio", "ratio"},
	{"rebuild_s", "s"},
	{"stretch_mean", "ratio"},
	{"stretch_max", "ratio"},
	{"table_bits_max", "bits"},
	{"heap_live_mib", "MiB"},
}

var perLayer = []metricDef{
	{"sssp.apsp_s", "s"},
	{"schemes.build_s", "s"},
	{"sim.hops_mean", "hops"},
	{"sim.ns_per_hop_p50", "ns"},
	{"sim.walk_us_p50", "us"},
	{"core.table_bits_mean", "bits"},
	{"core.heap_per_table_byte", "ratio"},
	{"client.transport_us_p50", "us"},
	{"server.handler_us_p50", "us"},
	{"server.handler_us_p99", "us"},
	{"server.self_us_p50", "us"},
	{"serve.hit_ratio", "ratio"},
	{"serve.compute_us_p50", "us"},
	{"serve.compute_us_p99", "us"},
	{"serve.repair_us_p50", "us"},
	{"serve.purges", "count"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"cluster.handler_us_p50", "us"},
	{"cluster.handler_us_p99", "us"},
	{"cluster.self_us_p50", "us"},
	{"cluster.scatter_ratio", "ratio"},
	{"cluster.shard_calls_per_route", "calls/route"},
	{"cluster.scatter_walk_us_p50", "us"},
	{"cluster.scatter_resolve_us_p50", "us"},
	{"cluster.failovers", "count"},
	{"cluster.skews", "count"},
	{"dynamic.mutate_ms_p50", "ms"},
	{"dynamic.build_s_p50", "s"},
	{"dynamic.swap_pause_us_max", "us"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles_per_kop", "gc/kop"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"obs.traced_p50_ratio", "ratio"},
}

// order is the sequence --workload all runs.
var order = []string{"walk", "cluster-read"}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*result, error){
	"walk":         runWalk,
	"cluster-read": runClusterRead,
}

// runConfig is one run's input: the flags plus the workload sizes.
type runConfig struct {
	seed   uint64
	timed  time.Duration
	traced bool
	sizes  sizes
}

// result is everything one run measured. Record lines carry it whole;
// the contract line carries only the agreed keys.
type result struct {
	Workload  string      `json:"workload"`
	Traced    bool        `json:"traced"`
	Env       environment `json:"env"`
	Correct   bool        `json:"correct"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	// Reads are the read figures: on an untraced run the medians over
	// its steady rounds, on a traced run its untraced windows'.
	Reads   readFigures        `json:"reads"`
	Rounds  []round            `json:"rounds,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	// Gate lists every failed correctness check.
	Gate []string `json:"gate,omitempty"`
	// Notes carries human-readable detail (the traced run's
	// per-layer breakdown) printed before the result lines.
	Notes []string `json:"-"`

	mu sync.Mutex // guards Correct and Gate against concurrent clients
}

func newResult(workload string, c runConfig) *result {
	return &result{Workload: workload, Traced: c.traced, Env: newEnvironment(c.seed),
		Correct: true, Metrics: map[string]float64{}}
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Correct = false
	if len(r.Gate) < 20 {
		r.Gate = append(r.Gate, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: walk, cluster-read, or all of them in turn")
	seed := fs.Uint64("seed", 1, "seed for the query streams and the mutation trace")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = order
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			names = nil
		}
	}
	if len(names) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload walk|cluster-read|all, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	c := runConfig{
		seed:   *seed,
		timed:  time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		sizes:  fullSizes,
	}
	code := 0
	for _, n := range names {
		res, err := workloads[n](ctx, c)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 2
		}
		if err := report(stdout, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// contractLine is the last line of a run's output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recordLine wraps a full result so compare mode can find it among a
// run's other output lines.
type recordLine struct {
	Record *result `json:"perfbench_record"`
}

// report prints the human-readable summary, the full record, and the
// contract line, in that order. A failed gate reports no numbers.
func report(w io.Writer, r *result) error {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	out := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{}}
	e := r.Env
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s steal=%.4f\n",
		r.Workload, e.Seed, r.Traced, e.GOMAXPROCS, e.NumCPU, e.CPU, e.GoVersion, e.Commit, e.StealShare)
	l := r.Reads
	fmt.Fprintf(w, "ops attempted=%d failed=%d  reads=%d latency sample=%d p50=%.2fus p99=%.2fus\n",
		r.Attempted, r.Failed, l.Count, l.Sample, l.P50us, l.P99us)
	if len(r.Rounds) > 0 {
		fmt.Fprintf(w, "rounds=%d kept=%d (steal ceiling %.2f) noisy=%v\n", l.Rounds, l.Kept, stealCeiling, l.Noisy)
		for i, rd := range r.Rounds {
			fmt.Fprintf(w, "  round %2d  %10.1f reads/s  p50 %8.2fus  p99 %8.2fus  steal %.3f\n", i, rd.qps(), rd.P50us, rd.P99us, rd.Steal)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	if !r.Correct {
		for _, g := range r.Gate {
			fmt.Fprintf(w, "GATE FAILED: %s\n", g)
		}
		r.Metrics = map[string]float64{}
	} else {
		for _, d := range defs {
			v, ok := r.Metrics[d.name]
			if !ok {
				return fmt.Errorf("%s did not measure %s", r.Workload, d.name)
			}
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, v, d.unit)
			out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	rec, err := json.Marshal(recordLine{Record: r})
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n%s\n", rec, line)
	return nil
}
