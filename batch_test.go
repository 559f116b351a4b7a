package compactroute

import (
	"strings"
	"testing"

	"compactroute/internal/sim"
)

func buildBatchScheme(t *testing.T, seed uint64, n int) *Scheme {
	t.Helper()
	net := RandomNetwork(seed, n, 0.07, UniformWeights(1, 6))
	s, err := Build(net, Config{Kind: KindPaper, K: 2, Seed: seed + 1, SFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// serialStretch is the reference implementation the shared stretch
// sweep (sim.Measure, behind MeasureStretch) must match: the plain
// row-major double loop.
func serialStretch(t *testing.T, s *Scheme, stride int) *Stretch {
	t.Helper()
	s.Network().EnsureMetric()
	var st Stretch
	n := s.Network().N()
	for u := 0; u < n; u += stride {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			res, err := s.Route(NodeID(u), NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Delivered {
				t.Fatalf("%d→%d not delivered", u, v)
			}
			st.Add(res.Cost, res.ShortestCost)
		}
	}
	return &st
}

// TestMeasureStretchParallelMatchesSerial: the fan-out must return a
// distribution identical to the serial path — not just statistically,
// but bit-for-bit, because rows are merged in row order.
func TestMeasureStretchParallelMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{3, 11, 29} {
		s := buildBatchScheme(t, seed, 70)
		for _, stride := range []int{1, 3} {
			want := serialStretch(t, s, stride)
			for _, workers := range []int{1, 2, 7, 64} {
				got, err := sim.Measure(s.net.g, s.net.metric(), s.router, stride, workers, true)
				if err != nil {
					t.Fatal(err)
				}
				if got.N() != want.N() {
					t.Fatalf("seed %d stride %d workers %d: N %d vs %d", seed, stride, workers, got.N(), want.N())
				}
				if got.Mean() != want.Mean() || got.Max() != want.Max() {
					t.Fatalf("seed %d stride %d workers %d: mean/max diverge: %v/%v vs %v/%v",
						seed, stride, workers, got.Mean(), got.Max(), want.Mean(), want.Max())
				}
				for _, p := range []float64{25, 50, 90, 99, 100} {
					if got.Percentile(p) != want.Percentile(p) {
						t.Fatalf("seed %d stride %d workers %d: p%v diverges", seed, stride, workers, p)
					}
				}
			}
		}
	}
}

func TestRouteBatchMatchesRoute(t *testing.T) {
	s := buildBatchScheme(t, 17, 60)
	n := s.Network().N()
	var pairs []Pair
	for u := 0; u < n; u += 3 {
		for v := 0; v < n; v += 5 {
			if u != v {
				pairs = append(pairs, Pair{NodeID(u), NodeID(v)})
			}
		}
	}
	got, err := s.RouteBatch(pairs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("got %d results for %d pairs", len(got), len(pairs))
	}
	for i, p := range pairs {
		want, err := s.Route(p.Src, p.Dst)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("pair %d (%d→%d): %+v vs %+v", i, p.Src, p.Dst, got[i], want)
		}
	}
}

func TestRouteBatchEmptyAndError(t *testing.T) {
	s := buildBatchScheme(t, 23, 40)
	res, err := s.RouteBatch(nil, 4)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v %v", res, err)
	}
	pairs := []Pair{{0, 1}, {2, NodeID(s.Network().N() + 5)}, {1, 0}}
	if _, err := s.RouteBatch(pairs, 2); err == nil {
		t.Fatal("invalid endpoint did not error")
	} else if !strings.Contains(err.Error(), "invalid endpoint") {
		t.Fatalf("unexpected error: %v", err)
	}
}
