package compactroute

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"compactroute/internal/bitsize"
	"compactroute/internal/graph"
	"compactroute/internal/sim"
)

// TestKindsListsAllBuiltins pins the v2 acceptance criterion: the
// registry lists all five schemes, every one builds by name, routes,
// and reports storage.
func TestKindsListsAllBuiltins(t *testing.T) {
	want := []string{"apcover", "fulltable", "landmark", "paper", "tz"}
	got := Kinds()
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("Kinds() = %v, missing %q", got, w)
		}
	}

	net := RandomNetwork(1, 40, 0.1, UniformWeights(1, 4))
	g := net.Graph()
	for _, kind := range want {
		info, ok := LookupKind(kind)
		if !ok || info.Kind != kind || info.Description == "" {
			t.Fatalf("LookupKind(%q) = %+v, %v", kind, info, ok)
		}
		s, err := Build(net, Config{Kind: kind, K: 2, Seed: 3})
		if err != nil {
			t.Fatalf("Build(%q): %v", kind, err)
		}
		if s.Kind() != kind {
			t.Fatalf("Build(%q).Kind() = %q", kind, s.Kind())
		}
		res, err := s.RouteByName(g.Name(0), g.Name(NodeID(net.N()-1)))
		if err != nil || !res.Delivered {
			t.Fatalf("kind %s route: %+v, %v", kind, res, err)
		}
		if s.MaxTableBits() <= 0 {
			t.Fatalf("kind %s: no table bits", kind)
		}
	}
}

func TestBuildUnknownKind(t *testing.T) {
	net := RingNetwork(2, 8, UnitWeights())
	_, err := Build(net, Config{Kind: "no-such-scheme", K: 2})
	if !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
}

// failingKind is the kind TestRegisterCustomKind registers for
// failingRouter.
const failingKind = "test-always-fails"

// failingRouter is a scheme that always gives up: the vehicle for the
// custom-registration and ErrNotDelivered tests.
type failingRouter struct{}

type failingHeader struct{}

func (failingHeader) Bits() bitsize.Bits { return 1 }

func (failingRouter) Name() string { return "always-fails" }
func (failingRouter) Begin(src graph.NodeID, dstName uint64) (sim.Header, error) {
	return failingHeader{}, nil
}
func (failingRouter) Step(x graph.NodeID, h sim.Header) (sim.Action, int, error) {
	return sim.Failed, 0, nil
}
func (failingRouter) MaxTableBits() bitsize.Bits { return 1 }
func (failingRouter) MeanTableBits() float64     { return 1 }

// TestRegisterCustomKind: an externally registered kind is buildable
// by name like the built-ins, and Save refuses it with the typed
// sentinel (registered kinds have no codec support).
func TestRegisterCustomKind(t *testing.T) {
	const kind = failingKind
	if _, dup := LookupKind(kind); !dup {
		Register(kind, func(net *Network, cfg Config) (*Scheme, error) {
			r := failingRouter{}
			return newScheme(net, cfg.Kind, r, r), nil
		})
	}
	net := RingNetwork(7, 10, UnitWeights())
	s, err := Build(net, Config{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != kind || s.Name() != "always-fails" {
		t.Fatalf("custom kind built %q/%q", s.Kind(), s.Name())
	}
	res, err := s.Route(0, 5)
	if err != nil || res.Delivered {
		t.Fatalf("failing router delivered: %+v, %v", res, err)
	}
	if err := Save(&discardWriter{}, s); !errors.Is(err, ErrNotPersistable) {
		t.Fatalf("Save(custom kind) err = %v, want ErrNotPersistable", err)
	}
	// A mandatory-delivery path reports the typed non-delivery error.
	if _, err := s.MeasureStretch(1); !errors.Is(err, ErrNotDelivered) {
		t.Fatalf("MeasureStretch err = %v, want ErrNotDelivered", err)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestRouteCtxCanceled pins the acceptance criterion: a context
// canceled mid-RouteCtx returns promptly with a wrapped
// context.Canceled.
func TestRouteCtxCanceled(t *testing.T) {
	net := RingNetwork(3, 64, UnitWeights())
	s, err := Build(net, Config{Kind: KindPaper, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first hop: the walk must not start
	t0 := time.Now()
	_, err = s.RouteCtx(ctx, 0, 32)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	if _, err := s.RouteByNameCtx(ctx, net.Graph().Name(0), net.Graph().Name(32)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RouteByNameCtx err = %v, want wrapped context.Canceled", err)
	}
	// A deadline that expires mid-walk surfaces as DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := s.RouteCtx(dctx, 0, 32); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err = %v, want wrapped context.DeadlineExceeded", err)
	}
	// The background context stays free of either sentinel.
	if res, err := s.RouteCtx(context.Background(), 0, 32); err != nil || !res.Delivered {
		t.Fatalf("background route: %+v, %v", res, err)
	}
}

func TestTypedRoutingErrors(t *testing.T) {
	net := RingNetwork(5, 12, UnitWeights())
	s, err := Build(net, Config{Kind: KindPaper, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RouteByName(0xBAD0, net.Graph().Name(0)); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("unknown source err = %v, want ErrUnknownName", err)
	}
	if _, err := s.RouteByLabel("ghost", "ghost"); !errors.Is(err, ErrUnknownLabel) {
		t.Fatalf("unknown label err = %v, want ErrUnknownLabel", err)
	}
	// TZ is labeled: an unknown *destination* name has no label and is
	// the caller's error.
	z, err := Build(net, Config{Kind: KindTZ, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := z.RouteByName(net.Graph().Name(0), 0xBAD0); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("tz unknown destination err = %v, want ErrUnknownName", err)
	}
}

// TestMetricKnown pins the "unknown is not optimal" satellite: results
// say explicitly whether ShortestCost is real, across the whole
// build→save→load→EnsureMetric lifecycle.
func TestMetricKnown(t *testing.T) {
	net := RandomNetwork(8, 60, 0.09, UniformWeights(1, 5))
	g := net.Graph()
	s, err := Build(net, Config{Kind: KindPaper, K: 2, Seed: 2, SFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RouteByName(g.Name(0), g.Name(NodeID(net.N()-1)))
	if err != nil || !res.MetricKnown || res.ShortestCost <= 0 {
		t.Fatalf("built scheme should know its metric: %+v, %v", res, err)
	}
	if res.Stretch() < 1 {
		t.Fatalf("stretch %v < 1", res.Stretch())
	}

	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := loaded.RouteByName(g.Name(0), g.Name(NodeID(net.N()-1)))
	if err != nil {
		t.Fatal(err)
	}
	if lres.MetricKnown || lres.ShortestCost != 0 {
		t.Fatalf("loaded scheme claims a metric it does not have: %+v", lres)
	}
	if lres.Stretch() != 1 {
		t.Fatalf("unknown stretch sentinel = %v, want 1", lres.Stretch())
	}
	if _, err := loaded.Network().TryDistance(0, 1); !errors.Is(err, ErrNoMetric) {
		t.Fatalf("TryDistance err = %v, want ErrNoMetric", err)
	}

	loaded.Network().EnsureMetric()
	mres, err := loaded.RouteByName(g.Name(0), g.Name(NodeID(net.N()-1)))
	if err != nil || !mres.MetricKnown {
		t.Fatalf("EnsureMetric did not surface the metric: %+v, %v", mres, err)
	}
	if mres.ShortestCost != res.ShortestCost {
		t.Fatalf("metric diverges after round-trip: %v vs %v", mres.ShortestCost, res.ShortestCost)
	}
	// An unknown destination keeps MetricKnown false even with a
	// metric: there is no d(u,v) to report.
	ures, err := loaded.RouteByName(g.Name(0), 0xBAD0)
	if err != nil || ures.Delivered || ures.MetricKnown {
		t.Fatalf("phantom destination: %+v, %v", ures, err)
	}
}
