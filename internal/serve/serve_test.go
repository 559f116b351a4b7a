package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compactroute"
)

// echoRouter returns a deterministic result derived from the pair and
// counts how many times it was actually invoked.
type echoRouter struct {
	calls atomic.Uint64
	block chan struct{} // when non-nil, Route blocks until closed
}

func (e *echoRouter) RouteByName(ctx context.Context, src, dst uint64) (compactroute.Result, error) {
	e.calls.Add(1)
	if e.block != nil {
		<-e.block
	}
	if dst == 0xdead {
		return compactroute.Result{}, errors.New("unknown destination")
	}
	return compactroute.Result{Delivered: true, Cost: float64(src + dst), Hops: int(src % 7)}, nil
}

// TestPoolCacheDisabled: the pool keeps no answers, so every query,
// a repeated pair included, reaches the router.
func TestPoolCacheDisabled(t *testing.T) {
	r := &echoRouter{}
	p := NewPool(r, 2)
	for i := 0; i < 3; i++ {
		if _, err := p.Route(context.Background(), 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.calls.Load(); got != 3 {
		t.Fatalf("router invoked %d times, want 3 (no cache)", got)
	}
}

func TestPoolErrorsAreNotCached(t *testing.T) {
	r := &echoRouter{}
	p := NewPool(r, 2)
	for i := 0; i < 2; i++ {
		if _, err := p.Route(context.Background(), 1, 0xdead); err == nil {
			t.Fatal("expected error")
		}
	}
	if got := r.calls.Load(); got != 2 {
		t.Fatalf("router invoked %d times, want 2 (errors not cached)", got)
	}
	if st := p.Stats(); st.Errors != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	r := &echoRouter{block: make(chan struct{})}
	const workers = 3
	p := NewPool(r, workers)

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.Route(context.Background(), uint64(i), uint64(1000+i))
		}(i)
	}
	// Wait until the pool saturates, then verify it never exceeds the cap.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().InFlight < workers {
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := p.Stats().InFlight; got != workers {
		t.Fatalf("in-flight %d, want exactly %d", got, workers)
	}
	close(r.block)
	wg.Wait()
	if got := p.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight %d after drain", got)
	}
}

func TestPoolContextCancellation(t *testing.T) {
	r := &echoRouter{block: make(chan struct{})}
	p := NewPool(r, 1)
	go p.Route(context.Background(), 1, 2) // occupies the only worker
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.Route(ctx, 3, 4)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	// Both classifications must hold: the typed saturation sentinel for
	// status mapping, and the underlying context error for callers that
	// distinguish cancellation from deadline expiry.
	if !errors.Is(err, ErrSaturated) || !errors.Is(err, context.Canceled) {
		t.Fatalf("rejection error %v lacks ErrSaturated/context.Canceled", err)
	}
	if st := p.Stats(); st.Rejected != 1 {
		t.Fatalf("stats %+v", st)
	}
	close(r.block)
}

func TestPoolConcurrentMixedLoad(t *testing.T) {
	r := &echoRouter{}
	p := NewPool(r, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				src, dst := uint64(i%40), uint64((g*i)%40)
				res, err := p.Route(context.Background(), src, dst)
				if err != nil {
					t.Errorf("route %d/%d: %v", src, dst, err)
					return
				}
				if want := float64(src + dst); res.Cost != want {
					t.Errorf("route %d/%d: cost %v want %v", src, dst, res.Cost, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	// Every admitted request walks once, and none fails.
	if st.Requests != 4000 || st.Errors+st.Rejected != 0 || st.InFlight != 0 {
		t.Fatalf("stats %+v", st)
	}
	if got := r.calls.Load(); got != st.Requests {
		t.Fatalf("router invoked %d times for %d requests", got, st.Requests)
	}
}

func ExampleRouterFunc() {
	p := NewPool(RouterFunc(func(ctx context.Context, src, dst uint64) (compactroute.Result, error) {
		return compactroute.Result{Delivered: true, Cost: 1}, nil
	}), 1)
	res, _ := p.Route(context.Background(), 1, 2)
	fmt.Println(res.Delivered)
	// Output: true
}
