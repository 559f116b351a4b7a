package compactroute

import (
	"runtime"
	"sync"
	"sync/atomic"

	"compactroute/internal/sim"
)

// Pair is one batched query between internal node ids.
type Pair struct {
	Src, Dst NodeID
}

// RouteBatch routes every pair concurrently across the given number of
// workers (0 or negative means GOMAXPROCS) and returns the results in
// input order. A built scheme is immutable, so the fan-out needs no
// locking; on error the lowest-index failure is returned and the
// remaining work is abandoned.
func (s *Scheme) RouteBatch(pairs []Pair, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	results := make([]Result, len(pairs))
	if len(pairs) == 0 {
		return results, nil
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		errMu  sync.Mutex
		errIdx = -1
		first  error
	)
	fail := func(i int, err error) {
		errMu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, first = i, err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return errIdx >= 0
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) || failed() {
					return
				}
				res, err := s.Route(pairs[i].Src, pairs[i].Dst)
				if err != nil {
					fail(i, err)
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if errIdx >= 0 {
		return nil, first
	}
	return results, nil
}

// MeasureStretch routes every ordered pair (or a strided sample when
// sampleStride > 1) and returns the stretch distribution, computing
// the network's metric first when it is absent. The first pair that
// is not delivered fails the sweep with a wrapped ErrNotDelivered.
// Rows fan across GOMAXPROCS workers (small sweeps run serially) and
// merge in row order, so the distribution is identical — sample order
// included — to a serial sweep (sim.Measure).
func (s *Scheme) MeasureStretch(sampleStride int) (*Stretch, error) {
	s.net.EnsureMetric() // stretch is meaningless without d(u,v)
	return sim.Measure(s.net.g, s.net.metric(), s.router, sampleStride, 0, true)
}
