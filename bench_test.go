// Benchmark harness: one testing.B target per reproduced table/figure
// (T1–T10, F1–F2; see DESIGN.md §2), each executing the corresponding
// experiment at smoke size, plus micro-benchmarks of the hot paths
// (shortest paths, scheme construction, per-message routing).
//
// Regenerate the full-size tables with: go run ./cmd/routebench -all
package compactroute_test

import (
	"io"
	"net/http/httptest"
	"sync"
	"testing"

	"compactroute"
	"compactroute/client"
	"compactroute/internal/bench"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/server"
	"compactroute/internal/sssp"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := bench.Experiments[id](b.Context(), io.Discard, bench.Config{Quick: true, Seed: 1}); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// One bench target per table/figure of the reproduction.

func BenchmarkT1SpaceStretch(b *testing.B)      { runExperiment(b, "T1") }
func BenchmarkT2ScaleFree(b *testing.B)         { runExperiment(b, "T2") }
func BenchmarkT3StretchComparison(b *testing.B) { runExperiment(b, "T3") }
func BenchmarkF1DenseProperty(b *testing.B)     { runExperiment(b, "F1") }
func BenchmarkF2SparseProperty(b *testing.B)    { runExperiment(b, "F2") }
func BenchmarkT4NITree(b *testing.B)            { runExperiment(b, "T4") }
func BenchmarkT5Cover(b *testing.B)             { runExperiment(b, "T5") }
func BenchmarkT6CoverRoute(b *testing.B)        { runExperiment(b, "T6") }
func BenchmarkT7LandmarkClaims(b *testing.B)    { runExperiment(b, "T7") }
func BenchmarkT8SchemeTable(b *testing.B)       { runExperiment(b, "T8") }
func BenchmarkT9Ablation(b *testing.B)          { runExperiment(b, "T9") }
func BenchmarkT10PhaseCosts(b *testing.B)       { runExperiment(b, "T10") }
func BenchmarkP1ParallelMeasure(b *testing.B)   { runExperiment(b, "P1") }

// --- micro-benchmarks ---

func BenchmarkDijkstra1024(b *testing.B) {
	g := gen.Gnp(1, 1024, 8.0/1024, gen.Uniform(1, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.From(g, graph.NodeID(i%g.N()))
	}
}

func BenchmarkAPSP256(b *testing.B) {
	g := gen.Gnp(2, 256, 8.0/256, gen.Uniform(1, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.AllPairs(g)
	}
}

// BenchmarkAPSPParallel1024 is the all-pairs sweep of perfbench's walk
// topology (gnp, n=1024, p=8/n, weights uniform in [1,8), seed 1): the
// first half of every set-up and rebuild there.
func BenchmarkAPSPParallel1024(b *testing.B) {
	g := gen.Gnp(1, 1024, 8.0/1024, gen.Uniform(1, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.AllPairsParallel(g, 0)
	}
}

// BenchmarkPaperBuild1024 is the second half: the paper scheme built on
// that network with its metric already computed, at routed's defaults
// (k=3, SFactor 0.25, seed 1).
func BenchmarkPaperBuild1024(b *testing.B) {
	net := compactroute.RandomNetwork(1, 1024, 8.0/1024, compactroute.UniformWeights(1, 8))
	cfg := compactroute.Config{Kind: compactroute.KindPaper, K: 3, Seed: 1, SFactor: 0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compactroute.BuildStream(b.Context(), net, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchemeBuildK3N256(b *testing.B) {
	net := compactroute.RandomNetwork(3, 256, 8.0/256, compactroute.UniformWeights(1, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compactroute.Build(net, compactroute.Config{Kind: compactroute.KindPaper, K: 3, Seed: uint64(i), SFactor: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicStart512 is a shard's cold start without HTTP: the
// network routed generates by default (gnp, n=512, p=8/n, weights
// uniform in [1,8], its metric included) and NewDynamic with routed's
// paper defaults (k=3, SFactor 0.25), the two steps server.New takes.
func BenchmarkDynamicStart512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := compactroute.RandomNetwork(1, 512, 8.0/512, compactroute.UniformWeights(1, 8))
		if _, err := compactroute.NewDynamic(net, compactroute.DynamicOptions{
			Configs: []compactroute.Config{{Kind: compactroute.KindPaper, K: 3, Seed: 1, SFactor: 0.25}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicRebuildMetric512 is one rebuild of routed -metric's
// shard (the BenchmarkDynamicStart512 shard with EnsureMetric): one
// pending weight change, replayed and built into a version that
// carries its metric.
func BenchmarkDynamicRebuildMetric512(b *testing.B) {
	net := compactroute.RandomNetwork(1, 512, 8.0/512, compactroute.UniformWeights(1, 8))
	d, err := compactroute.NewDynamic(net, compactroute.DynamicOptions{
		Configs:      []compactroute.Config{{Kind: compactroute.KindPaper, K: 3, Seed: 1, SFactor: 0.25}},
		EnsureMetric: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := net.Graph()
	u := g.Name(0)
	var v uint64
	g.Neighbors(0, func(e graph.Edge) bool {
		v = g.Name(e.To)
		return false
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Apply(compactroute.MutSetWeight(u, v, float64(2+i%2))); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Rebuild(b.Context()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientRouteLoopback is one client read end to end over a
// real socket: client.New's own transport against a paper shard
// (server.New, n=256, k=3) on a loopback listener, so the shard's
// handler, net/http's server and the client's inline round trip are
// all in the measurement.
func BenchmarkClientRouteLoopback(b *testing.B) {
	srv, err := server.New(server.Config{Scheme: compactroute.KindPaper, N: 256, K: 3, Seed: 5, Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	defer c.HTTP.CloseIdleConnections()
	g := srv.Scheme().Network().Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := g.Name(compactroute.NodeID(i%256)), g.Name(compactroute.NodeID((i*131+17)%256))
		if _, err := c.RouteByName(b.Context(), src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// routeBench holds prebuilt schemes shared by the routing throughput
// benchmarks (construction excluded from timing).
var routeBench struct {
	once sync.Once
	net  *compactroute.Network
	agm  *compactroute.Scheme
	full *compactroute.Scheme
	tz   *compactroute.Scheme
}

func routeSetup(b *testing.B) {
	b.Helper()
	routeBench.once.Do(func() {
		routeBench.net = compactroute.RandomNetwork(4, 256, 8.0/256, compactroute.UniformWeights(1, 8))
		var err error
		if routeBench.agm, err = compactroute.Build(routeBench.net, compactroute.Config{Kind: compactroute.KindPaper, K: 3, Seed: 7, SFactor: 1}); err != nil {
			panic(err)
		}
		if routeBench.full, err = compactroute.Build(routeBench.net, compactroute.Config{Kind: compactroute.KindFullTable}); err != nil {
			panic(err)
		}
		if routeBench.tz, err = compactroute.Build(routeBench.net, compactroute.Config{Kind: compactroute.KindTZ, K: 3, Seed: 7}); err != nil {
			panic(err)
		}
	})
}

func benchRoutes(b *testing.B, s *compactroute.Scheme) {
	b.Helper()
	n := routeBench.net.N()
	totalStretch, delivered := 0.0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := compactroute.NodeID(i % n)
		dst := compactroute.NodeID((i*131 + 17) % n)
		if src == dst {
			continue
		}
		res, err := s.Route(src, dst)
		if err != nil || !res.Delivered {
			b.Fatalf("route failed: %v", err)
		}
		totalStretch += res.Stretch()
		delivered++
	}
	if delivered > 0 {
		b.ReportMetric(totalStretch/float64(delivered), "stretch/route")
	}
}

func BenchmarkRouteAGM06(b *testing.B) {
	routeSetup(b)
	benchRoutes(b, routeBench.agm)
}

func BenchmarkRouteFullTable(b *testing.B) {
	routeSetup(b)
	benchRoutes(b, routeBench.full)
}

func BenchmarkRouteTZ(b *testing.B) {
	routeSetup(b)
	benchRoutes(b, routeBench.tz)
}
