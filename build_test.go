package compactroute

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// cancelOnErr cancels its context on the k-th Err call, so the
// cancellation lands mid-sweep at the same point on every run.
type cancelOnErr struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int32
	k      int32
}

func (c *cancelOnErr) Err() error {
	if c.calls.Add(1) == c.k {
		c.cancel()
	}
	return c.Context.Err()
}

// cancelAt returns a context that cancels itself on its k-th Err call.
func cancelAt(k int32) (*cancelOnErr, context.CancelFunc) {
	base, cancel := context.WithCancel(context.Background())
	return &cancelOnErr{Context: base, cancel: cancel, k: k}, cancel
}

// waitGoroutines fails the test unless the goroutine count falls back
// to before within two seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, got)
	}
}

// builtinKinds are the five built-in kinds. Other root tests register
// throwaway kinds (e.g. one that never delivers) in the shared registry.
var builtinKinds = []string{KindPaper, KindFullTable, KindAPCover, KindLandmarkChain, KindTZ}

// TestBuildStreamLazyNetwork: a build over a metric-less network
// computes the metric, leaves the network holding it, and routes
// exactly as a build over a network that had it all along, with true
// stretch on every answer.
func TestBuildStreamLazyNetwork(t *testing.T) {
	warm := RandomNetwork(5, 60, 8.0/60, UniformWeights(1, 8))
	for _, kind := range builtinKinds {
		lazy := WrapGraphLazy(warm.Graph())
		if lazy.HasMetric() {
			t.Fatal("WrapGraphLazy must not compute the metric")
		}
		ref, err := Build(warm, Config{Kind: kind, K: 2, Seed: 9})
		if err != nil {
			t.Fatalf("Build(%q): %v", kind, err)
		}
		s, err := BuildStream(context.Background(), lazy, Config{Kind: kind, K: 2, Seed: 9})
		if err != nil {
			t.Fatalf("BuildStream(%q): %v", kind, err)
		}
		if !lazy.HasMetric() {
			t.Fatalf("BuildStream(%q) left the lazy network without the metric it built from", kind)
		}
		if s.MaxTableBits() != ref.MaxTableBits() || s.MeanTableBits() != ref.MeanTableBits() {
			t.Fatalf("BuildStream(%q) table bits %d/%v, Build %d/%v", kind,
				s.MaxTableBits(), s.MeanTableBits(), ref.MaxTableBits(), ref.MeanTableBits())
		}
		g := warm.Graph()
		for q := 0; q < 60; q++ {
			src, dst := g.Name(NodeID(q%g.N())), g.Name(NodeID((q*37+11)%g.N()))
			got, err := s.RouteByName(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.RouteByName(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || !got.MetricKnown {
				t.Fatalf("BuildStream(%q) %#x→%#x: lazy %+v, warm %+v", kind, src, dst, got, want)
			}
		}
	}
}

// TestBuildStreamCanceled: a canceled build returns the context's own
// error, wrapped: an expired deadline surfaces as DeadlineExceeded, not
// Canceled, on a lazy network and on a warm one, and the lazy network
// is left without a metric.
func TestBuildStreamCanceled(t *testing.T) {
	warm := RandomNetwork(5, 40, 0.2, UniformWeights(1, 8))
	lazy := WrapGraphLazy(warm.Graph())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, tc := range []struct {
		name string
		net  *Network
		kind string
	}{
		{"lazy", lazy, KindTZ},
		{"warm", warm, KindPaper},
	} {
		if _, err := BuildStream(ctx, tc.net, Config{Kind: tc.kind, K: 2}); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: got %v, want wrapped context.DeadlineExceeded", tc.name, err)
		}
	}
	if lazy.HasMetric() {
		t.Fatal("an expired build published a metric")
	}
}

// TestBuildStreamPreCanceled: an already-canceled context fails fast
// for every kind, on a lazy network and on a warm one (whose cached
// metric once let the build skip the ctx check).
func TestBuildStreamPreCanceled(t *testing.T) {
	warm := RandomNetwork(5, 24, 8.0/24, UniformWeights(1, 8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range builtinKinds {
		cfg := Config{Kind: kind, K: 2, Seed: 7}
		for _, net := range []*Network{warm, WrapGraphLazy(warm.Graph())} {
			if _, err := BuildStream(ctx, net, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s pre-canceled (metric %v): got %v, want wrapped context.Canceled", kind, net.HasMetric(), err)
			}
		}
	}
}

// TestBuildStreamCancellation: a cancel that lands mid-sweep on a lazy
// network surfaces as a wrapped context.Canceled from every kind,
// publishes no metric, and leaves no sweep worker running.
func TestBuildStreamCancellation(t *testing.T) {
	warm := RandomNetwork(5, 96, 8.0/96, UniformWeights(1, 8))
	before := runtime.NumGoroutine()
	for _, kind := range builtinKinds {
		lazy := WrapGraphLazy(warm.Graph())
		ctx, cancel := cancelAt(5)
		_, err := BuildStream(ctx, lazy, Config{Kind: kind, K: 2, Seed: 7})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s canceled mid-sweep: got %v, want wrapped context.Canceled", kind, err)
		}
		if lazy.HasMetric() {
			t.Fatalf("%s: a canceled sweep published a metric", kind)
		}
	}
	waitGoroutines(t, before)
}
