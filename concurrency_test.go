package compactroute

import (
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
// goroutines may route through it simultaneously. Run with -race.
func TestConcurrentRouting(t *testing.T) {
	net := RandomNetwork(10, 80, 0.08, UniformWeights(1, 5))
	s, err := Build(net, Config{Kind: KindPaper, K: 2, Seed: 3, SFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
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
					errs[gi] = err
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
