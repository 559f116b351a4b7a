package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"compactroute/internal/core"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/routeerr"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
	"compactroute/internal/stats"
)

// RunP1 measures the parallel stretch-measurement speedup: the same
// strided all-pairs sweep through the paper's scheme, single-core vs
// fanned across GOMAXPROCS. The sweep dominates every experiment run
// (it is the only Ω(n²) consumer of a built scheme), so this is the
// harness's own hot path. The runner also re-verifies the contract
// that makes the fan-out safe to rely on everywhere: both sweeps must
// produce the identical distribution.
func RunP1(ctx context.Context, w io.Writer, cfg Config) error {
	n, k, stride := 2000, 4, 4
	if cfg.Quick {
		n, k, stride = 256, 3, 2
	}
	g := gen.Gnp(cfg.Seed, n, 8/float64(n), gen.Uniform(1, 8))
	nn := newNet(g)
	s, err := core.BuildWithAPSP(nn.g, nn.apsp, core.Params{K: k, Seed: cfg.Seed, SFactor: 0.25})
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)

	t0 := time.Now()
	serial, err := measureSerial(nn.g, nn.apsp, s, stride)
	if err != nil {
		return err
	}
	serialTime := time.Since(t0)
	t1 := time.Now()
	parallel, err := sim.Measure(nn.g, nn.apsp, s, stride, workers, true)
	if err != nil {
		return err
	}
	parallelTime := time.Since(t1)

	if serial.N() != parallel.N() || serial.Mean() != parallel.Mean() || serial.Max() != parallel.Max() {
		return fmt.Errorf("P1: parallel sweep diverges from serial: n %d/%d mean %v/%v max %v/%v",
			parallel.N(), serial.N(), parallel.Mean(), serial.Mean(), parallel.Max(), serial.Max())
	}
	for _, p := range []float64{50, 95, 99} {
		if serial.Percentile(p) != parallel.Percentile(p) {
			return fmt.Errorf("P1: p%v diverges: %v vs %v", p, parallel.Percentile(p), serial.Percentile(p))
		}
	}

	speedup := 0.0
	if parallelTime > 0 {
		speedup = float64(serialTime) / float64(parallelTime)
	}
	tb := stats.NewTable("P1: parallel stretch-measurement speedup",
		"n", "k", "pairs", "workers", "serial", "parallel", "speedup")
	tb.AddRow(n, k, serial.N(), workers,
		serialTime.Round(time.Millisecond).String(),
		parallelTime.Round(time.Millisecond).String(),
		speedup)
	return cfg.emit(w, tb, fmt.Sprintf(
		"distributions identical (n=%d mean=%.4f max=%.4f); expected shape: speedup → workers as n grows",
		serial.N(), serial.Mean(), serial.Max()))
}

// measureSerial is the single-core reference sweep P1 times and holds
// sim.Measure to: one engine, one accumulator, the plain row-major
// double loop over a strided sample of sources, every pair delivered.
func measureSerial(g *graph.Graph, apsp []*sssp.Result, r sim.Router, stride int) (*stats.Stretch, error) {
	e := sim.NewEngine(g)
	var st stats.Stretch
	for u := 0; u < g.N(); u += stride {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			res, err := e.Route(r, graph.NodeID(u), g.Name(graph.NodeID(v)))
			if err != nil {
				return nil, err
			}
			if !res.Delivered {
				return nil, fmt.Errorf("%s: %d→%d: %w", r.Name(), u, v, routeerr.ErrNotDelivered)
			}
			st.Add(res.Cost, apsp[u].Dist[v])
		}
	}
	return &st, nil
}
