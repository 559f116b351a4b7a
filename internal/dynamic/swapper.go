package dynamic

import (
	"sync"
	"sync/atomic"
	"time"
)

// Swapper is the hot-swap serving handle: it publishes exactly one
// immutable *Version at a time through an atomic pointer. A request
// resolves the current version once at admission and routes entirely
// on it, so a concurrent swap can never tear a route across two
// topologies; in-flight routes finish on the version they resolved,
// new requests see the new one.
//
// Swap runs the registered hooks synchronously after the pointer
// store. The whole swap (pointer store + hooks) is the serving pause
// the D1 experiment bounds below a millisecond; anything expensive
// (builds, metric computation, persistence) belongs before the swap,
// not in a hook.
type Swapper struct {
	cur atomic.Pointer[Version]

	mu    sync.Mutex // guards hooks registration
	hooks []func(*Version)

	swaps     atomic.Uint64
	lastPause atomic.Int64 // nanoseconds
	maxPause  atomic.Int64
}

// NewSwapper returns a swapper publishing v0.
func NewSwapper(v0 *Version) *Swapper {
	s := &Swapper{}
	s.cur.Store(v0)
	return s
}

// Current returns the published version (one atomic load — the
// per-request cost of dynamic serving).
func (s *Swapper) Current() *Version { return s.cur.Load() }

// OnSwap registers a hook run synchronously inside every subsequent
// Swap, after the new version is published. Hooks must be fast (they
// are inside the measured pause) and must not call Swap.
func (s *Swapper) OnSwap(fn func(*Version)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = append(s.hooks, fn)
}

// Swap publishes v and runs the hooks, returning the pause — the
// wall time from just before the pointer store to after the last
// hook.
func (s *Swapper) Swap(v *Version) time.Duration {
	s.mu.Lock()
	hooks := s.hooks
	s.mu.Unlock()
	t0 := time.Now()
	s.cur.Store(v)
	for _, fn := range hooks {
		fn(v)
	}
	pause := time.Since(t0)
	s.swaps.Add(1)
	s.lastPause.Store(int64(pause))
	for {
		old := s.maxPause.Load()
		if int64(pause) <= old || s.maxPause.CompareAndSwap(old, int64(pause)) {
			break
		}
	}
	return pause
}

// Swaps returns how many versions have been published via Swap.
func (s *Swapper) Swaps() uint64 { return s.swaps.Load() }

// LastPause returns the most recent swap's serving pause.
func (s *Swapper) LastPause() time.Duration { return time.Duration(s.lastPause.Load()) }

// MaxPause returns the largest serving pause observed.
func (s *Swapper) MaxPause() time.Duration { return time.Duration(s.maxPause.Load()) }
