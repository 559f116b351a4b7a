package compactroute

import (
	"context"
	"math"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(0xCAFE)
	c := b.AddNode(0xBEEF)
	d := b.AddNode(0xF00D)
	if err := b.AddEdge(a, c, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(c, d, 1.5); err != nil {
		t.Fatal(err)
	}
	net, err := BuildNetwork(b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, Config{Kind: KindPaper, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RouteByName(0xCAFE, 0xF00D)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.Cost != 4 || res.Hops != 2 {
		t.Fatalf("quickstart route = %+v", res)
	}
	if res.Stretch() != 1 {
		t.Fatalf("stretch = %v", res.Stretch())
	}
}

// TestAllPublicSchemesOnOneNetwork: every registered kind builds
// through Build on one network, delivers every pair, and reports its
// table size. The failing kind registry_test.go registers (Register
// has no undo) is the one exception.
func TestAllPublicSchemesOnOneNetwork(t *testing.T) {
	net := RandomNetwork(1, 40, 0.1, UniformWeights(1, 4))
	for _, kind := range Kinds() {
		if kind == failingKind {
			continue
		}
		s, err := Build(net, Config{Kind: kind, K: 2, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		st, err := s.MeasureStretch(1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if st.N() == 0 || st.Max() < 1 {
			t.Fatalf("%s: empty stretch", s.Name())
		}
		if s.MaxTableBits() <= 0 {
			t.Fatalf("%s: no table bits", s.Name())
		}
	}
}

func TestRouteByUnknownNames(t *testing.T) {
	net := RingNetwork(2, 10, UnitWeights())
	s, err := Build(net, Config{Kind: KindPaper, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RouteByName(0xBAD, net.Graph().Name(0)); err == nil {
		t.Fatal("unknown source accepted")
	}
	// Unknown destination: the scheme must search and fail to deliver,
	// not error out.
	res, err := s.RouteByName(net.Graph().Name(0), 0xBAD)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Fatal("delivered to a phantom name")
	}
}

func TestNetworkDistance(t *testing.T) {
	net := GridNetwork(3, 3, 3, UnitWeights())
	if net.N() != 9 {
		t.Fatalf("N = %d", net.N())
	}
	if d := net.Distance(0, 8); d != 4 {
		t.Fatalf("corner distance = %v", d)
	}
}

func TestCoreAccessor(t *testing.T) {
	net := RingNetwork(4, 12, UnitWeights())
	s, err := Build(net, Config{Kind: KindPaper, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Core() == nil {
		t.Fatal("core accessor nil for core scheme")
	}
	f, _ := Build(net, Config{Kind: KindFullTable})
	if f.Core() != nil {
		t.Fatal("core accessor non-nil for baseline")
	}
}

func TestMeasureStretchSampled(t *testing.T) {
	net := RandomNetwork(5, 30, 0.15, UnitWeights())
	s, err := Build(net, Config{Kind: KindFullTable})
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.MeasureStretch(1)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := s.MeasureStretch(3)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.N() >= full.N() {
		t.Fatal("sampling did not reduce pairs")
	}
}

func TestInvalidRouteEndpoints(t *testing.T) {
	net := RingNetwork(6, 8, UnitWeights())
	s, _ := Build(net, Config{Kind: KindFullTable})
	if _, err := s.Route(-1, 2); err == nil {
		t.Fatal("negative id accepted")
	}
	if _, err := s.Route(0, 100); err == nil {
		t.Fatal("out of range id accepted")
	}
}

func TestRouteByLabel(t *testing.T) {
	b := NewBuilder()
	hosts := []string{"db-primary", "db-replica", "web-1", "web-2", "cache"}
	ids := make([]NodeID, len(hosts))
	for i, h := range hosts {
		ids[i] = AddLabeled(b, h)
	}
	for i := 1; i < len(ids); i++ {
		if err := b.AddEdge(ids[i-1], ids[i], float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	net, err := BuildNetwork(b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, Config{Kind: KindPaper, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RouteByLabel("db-primary", "cache")
	if err != nil || !res.Delivered {
		t.Fatalf("labeled route failed: %+v %v", res, err)
	}
	if res.Cost != 1+2+3+4 {
		t.Fatalf("labeled route cost %v", res.Cost)
	}
	if _, err := s.RouteByLabel("nope", "cache"); err == nil {
		t.Fatal("unknown source label accepted")
	}
	if _, err := s.RouteByLabel("cache", "nope"); err == nil {
		t.Fatal("unknown destination label accepted")
	}
}

// TestRoutePathMatchesRoute checks the path walk against the untraced
// route: the same answer, and a path of Hops+1 adjacent nodes from the
// source to the destination whose weights sum to Cost.
func TestRoutePathMatchesRoute(t *testing.T) {
	net := RandomNetwork(7, 90, 0.06, UniformWeights(1, 6))
	g := net.Graph()
	ctx := context.Background()
	for _, kind := range []string{KindPaper, KindFullTable} {
		s, err := Build(net, Config{Kind: kind, K: 3, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 400; q++ {
			src, dst := g.Name(NodeID(q%g.N())), g.Name(NodeID((q*37+11)%g.N()))
			want, err := s.RouteByNameCtx(ctx, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			got, path, err := s.RoutePathByNameCtx(ctx, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s %#x→%#x: path walk %+v, route %+v", kind, src, dst, got, want)
			}
			if len(path) != got.Hops+1 || path[0] != src || path[len(path)-1] != dst {
				t.Fatalf("%s %#x→%#x: path %x for %d hops", kind, src, dst, path, got.Hops)
			}
			cost := 0.0
			for i := 0; i+1 < len(path); i++ {
				u, _ := g.Lookup(path[i])
				v, _ := g.Lookup(path[i+1])
				port := g.PortTo(u, v)
				if port < 0 {
					t.Fatalf("%s %#x→%#x: hop %#x→%#x is not an edge", kind, src, dst, path[i], path[i+1])
				}
				cost += g.EdgeAt(u, port).Weight
			}
			if math.Abs(cost-got.Cost) > 1e-9 {
				t.Fatalf("%s %#x→%#x: path weighs %v, cost %v", kind, src, dst, cost, got.Cost)
			}
		}
	}
}

// TestRoutePathAllocs pins the path walk's allocations on the paper
// scheme: the route's own two (header and search state), the path,
// sized once, and its names. The walk reuses the scheme's engine.
func TestRoutePathAllocs(t *testing.T) {
	net := RandomNetwork(5, 512, 8.0/512, UniformWeights(1, 8))
	s, err := Build(net, Config{Kind: KindPaper, K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	ctx := context.Background()
	q := 0
	allocs := testing.AllocsPerRun(1000, func() {
		q++
		if _, _, err := s.RoutePathByNameCtx(ctx, g.Name(NodeID(q%512)), g.Name(NodeID((q*131+17)%512))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("RoutePathByNameCtx: %.2f allocations per route, want at most 4", allocs)
	}
}
