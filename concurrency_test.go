package compactroute

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestParallelBuildDeterminism: the parallel builders must produce the
// same scheme a sequential build would (all randomness is derived from
// per-unit seeds, never from scheduling).
func TestParallelBuildDeterminism(t *testing.T) {
	net := RandomNetwork(9, 100, 0.06, UniformWeights(1, 6))
	a, err := Build(net, Config{Kind: KindPaper, K: 3, Seed: 5, SFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(net, Config{Kind: KindPaper, K: 3, Seed: 5, SFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxTableBits() != b.MaxTableBits() {
		t.Fatalf("parallel builds diverge: %d vs %d", a.MaxTableBits(), b.MaxTableBits())
	}
	for u := NodeID(0); int(u) < net.N(); u += 7 {
		for v := NodeID(0); int(v) < net.N(); v += 5 {
			ra, err1 := a.Route(u, v)
			rb, err2 := b.Route(u, v)
			if err1 != nil || err2 != nil || ra.Cost != rb.Cost || ra.Hops != rb.Hops {
				t.Fatalf("routes diverge at %d→%d", u, v)
			}
		}
	}
}

// TestConcurrentRouting: a built scheme is immutable, so any number of
// goroutines may route through it simultaneously, on the plain engine
// and on the tracing engine the path walk shares. Run with -race.
func TestConcurrentRouting(t *testing.T) {
	net := RandomNetwork(10, 80, 0.08, UniformWeights(1, 5))
	s, err := Build(net, Config{Kind: KindPaper, K: 2, Seed: 3, SFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	wg.Add(goroutines)
	for gi := 0; gi < goroutines; gi++ {
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src := NodeID((gi*31 + i) % net.N())
				dst := NodeID((gi*17 + i*13) % net.N())
				res, err := s.Route(src, dst)
				if err != nil {
					errs[gi] = err
					return
				}
				if !res.Delivered {
					errs[gi] = fmt.Errorf("route %d→%d not delivered", src, dst)
					return
				}
				pres, path, err := s.RoutePathByNameCtx(context.Background(), g.Name(src), g.Name(dst))
				if err != nil {
					errs[gi] = err
					return
				}
				if pres != res || path[len(path)-1] != g.Name(dst) {
					errs[gi] = fmt.Errorf("path walk %d→%d: %+v ending at %#x, route %+v", src, dst, pres, path[len(path)-1], res)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
