package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"compactroute/internal/graph"
	"compactroute/internal/routeerr"
	"compactroute/internal/sssp"
	"compactroute/internal/stats"
)

// serialRowThreshold is the source-row count below which auto mode
// (workers 0) sweeps serially: goroutine startup, work-stealing
// atomics, and the per-row merge cost more than the fan-out saves
// (the P1 experiment measures 0.88× "speedup" at 128 rows on a
// single-core runner). An explicit worker count is always honored —
// P1 relies on that to measure the fan-out itself at quick sizes.
const serialRowThreshold = 256

// Measure routes a strided sample of ordered pairs (every pair at
// stride 1) through r and returns the stretch distribution against
// the all-pairs metric apsp. Source rows fan across the given number
// of workers (0 means GOMAXPROCS, or serial below serialRowThreshold
// rows). Built schemes are immutable and per-message state lives in
// the header, so the fan-out is safe for every router in this
// repository. Each row accumulates into its own Stretch and rows merge
// in row order, so the result is identical — sample order included —
// to a serial sweep regardless of worker count. A pair that is not
// delivered wraps routeerr.ErrNotDelivered when requireDelivery is set
// (routers that must always deliver) and is skipped otherwise.
func Measure(g *graph.Graph, apsp []*sssp.Result, r Router, stride, workers int, requireDelivery bool) (*stats.Stretch, error) {
	if stride < 1 {
		stride = 1
	}
	nRows := (g.N() + stride - 1) / stride
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if nRows < serialRowThreshold {
			workers = 1
		}
	}
	rows := make([]int, 0, nRows)
	for u := 0; u < g.N(); u += stride {
		rows = append(rows, u)
	}
	if workers > len(rows) {
		workers = len(rows)
	}
	if workers == 1 {
		// A single worker coordinates with nobody: skip the goroutine
		// machinery and merge rows inline (identical distribution).
		e := NewEngine(g)
		var st stats.Stretch
		for _, u := range rows {
			row, err := measureRow(e, apsp, r, u, requireDelivery)
			if err != nil {
				return nil, err
			}
			st.Merge(row)
		}
		return &st, nil
	}
	perRow := make([]*stats.Stretch, len(rows))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail error
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fail != nil
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			e := NewEngine(g)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rows) || failed() {
					return
				}
				st, err := measureRow(e, apsp, r, rows[i], requireDelivery)
				if err != nil {
					mu.Lock()
					if fail == nil {
						fail = err
					}
					mu.Unlock()
					return
				}
				perRow[i] = st
			}
		}()
	}
	wg.Wait()
	if fail != nil {
		return nil, fail
	}
	var st stats.Stretch
	for _, row := range perRow {
		st.Merge(row)
	}
	return &st, nil
}

// measureRow routes one source against every destination.
func measureRow(e *Engine, apsp []*sssp.Result, r Router, u int, requireDelivery bool) (*stats.Stretch, error) {
	g := e.Graph()
	var st stats.Stretch
	for v := 0; v < g.N(); v++ {
		if u == v {
			continue
		}
		res, err := e.Route(r, graph.NodeID(u), g.Name(graph.NodeID(v)))
		if err != nil {
			return nil, err
		}
		if !res.Delivered {
			if requireDelivery {
				return nil, fmt.Errorf("sim: %s: %d→%d: %w", r.Name(), u, v, routeerr.ErrNotDelivered)
			}
			continue
		}
		st.Add(res.Cost, apsp[u].Dist[v])
	}
	return &st, nil
}
