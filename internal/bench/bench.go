// Package bench implements the experiment harness: one runner per
// table/figure of DESIGN.md §2 (T1–T10, F1–F2) plus the harness's own
// performance runners (P1 parallel query sweep, D1 dynamic-topology
// churn, D2 failure resilience, S1 sharded serving tier, O1 tracing
// overhead), each printing the series the reproduction reports in
// EXPERIMENTS.md.
//
// Every runner is deterministic given its seed and comes in two sizes:
// Quick (used by the testing.B wrappers and smoke tests) and full
// (used by cmd/routebench to regenerate the recorded tables).
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"compactroute/internal/graph"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
	"compactroute/internal/stats"
)

// Config configures a run.
type Config struct {
	// Quick shrinks sizes for smoke tests and benchmarks.
	Quick bool
	// Seed drives all sampling.
	Seed uint64
	// JSON switches every runner's output from aligned text tables to
	// one JSON object per table (JSON Lines), the machine-readable form
	// cmd/routebench -json emits for perf-trajectory tracking. Prose
	// notes ("expected shape: …") appear only in text mode.
	JSON bool
}

// emit writes one experiment table in the configured format, plus any
// explanatory notes (text mode only — the notes restate expectations,
// not measurements, so they would be noise in a data stream).
func (cfg Config) emit(w io.Writer, tb *stats.Table, notes ...string) error {
	if cfg.JSON {
		enc := json.NewEncoder(w)
		return enc.Encode(tb)
	}
	if _, err := fmt.Fprint(w, tb.String()); err != nil {
		return err
	}
	for _, n := range notes {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
		}
	}
	return nil
}

// Runner is one experiment. The context is honored between (and,
// where the underlying paths support it, inside) measurement units,
// so an interrupted benchmark run stops instead of finishing the
// sweep: cmd/routebench hands every runner its signal context.
type Runner func(ctx context.Context, w io.Writer, cfg Config) error

// Experiments maps experiment ids to runners.
var Experiments = map[string]Runner{
	"T1":  RunT1,
	"T2":  RunT2,
	"T3":  RunT3,
	"F1":  RunF1,
	"F2":  RunF2,
	"T4":  RunT4,
	"T5":  RunT5,
	"T6":  RunT6,
	"T7":  RunT7,
	"T8":  RunT8,
	"T9":  RunT9,
	"T10": RunT10,
	"P1":  RunP1,
	"O1":  RunO1,
	"D1":  RunD1,
	"D2":  RunD2,
	"S1":  RunS1,
}

// IDs returns the experiment ids in canonical order.
func IDs() []string {
	ids := make([]string, 0, len(Experiments))
	for id := range Experiments {
		ids = append(ids, id)
	}
	rank := func(id string) int { // tables, then figures, then perf
		switch id[0] {
		case 'T':
			return 0
		case 'F':
			return 1
		default:
			return 2
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if rank(a) != rank(b) {
			return rank(a) < rank(b)
		}
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return ids
}

// RunAll executes every experiment in order. In JSON mode the stream
// is pure JSON Lines (tables identify themselves by title); in text
// mode each experiment gets a banner.
func RunAll(ctx context.Context, w io.Writer, cfg Config) error {
	for _, id := range IDs() {
		if !cfg.JSON {
			fmt.Fprintf(w, "\n### experiment %s ###\n", id)
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("bench: %s: %w", id, err)
		}
		if err := Experiments[id](ctx, w, cfg); err != nil {
			return fmt.Errorf("bench: %s: %w", id, err)
		}
	}
	return nil
}

// net bundles a graph with its metric.
type net struct {
	g    *graph.Graph
	apsp []*sssp.Result
}

func newNet(g *graph.Graph) *net { return &net{g: g, apsp: sssp.AllPairs(g)} }

// measure routes a strided sample of ordered pairs through a router
// and returns the stretch distribution; it errors on non-delivery for
// routers that must always deliver. Rows fan across all cores (see
// sim.Measure); the distribution is identical to a serial sweep.
func (n *net) measure(r sim.Router, stride int, requireDelivery bool) (*stats.Stretch, error) {
	return sim.Measure(n.g, n.apsp, r, stride, 0, requireDelivery)
}
