package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/sim"
	"compactroute/internal/xrand"
)

// goldenCase is one pinned build: the graph, the parameters, and the
// sha256 of everything the scheme decides (see schemeDigest).
type goldenCase struct {
	name string
	g    func() *graph.Graph
	p    Params
	want string
}

// goldenCases pin the paper scheme across versions: table bits, the
// build report, every routing pointer, and a seeded sample of route
// answers. A change to the construction that is meant to be
// behaviour-preserving must leave every hash as it is.
var goldenCases = []goldenCase{
	{"gnp-k2", func() *graph.Graph { return gen.Gnp(101, 160, 0.04, gen.Uniform(1, 5)) },
		Params{K: 2, Seed: 7, SFactor: 0.5},
		"2b6d0a383fb8e8975c3facd6b5c5aede8fc6fc221be26e789951eb38a46559b3"},
	{"gnp-k3", func() *graph.Graph { return gen.Gnp(102, 240, 0.03, gen.Uniform(1, 5)) },
		Params{K: 3, Seed: 8, SFactor: 1},
		"63fa237cc5906a1e63843c7923169fcc8d1669789351405b6cb5a7e0b9ea9747"},
	{"gnp-k4", func() *graph.Graph { return gen.Gnp(103, 280, 0.025, gen.Uniform(1, 8)) },
		Params{K: 4, Seed: 9, SFactor: 1},
		"94201abfb99d85438403576a85657913e36086b15d63d9baf2c1437013ab0713"},
	{"geometric-k3", func() *graph.Graph { return gen.Geometric(104, 200, 0.15) },
		Params{K: 3, Seed: 10, SFactor: 1, LoadFactor: 0.3},
		"0b0ed21cc263b3bf18a1cc5e0169a94938d9b8b372723baf8eabb1c240ef86e8"},
	{"sparse-only-k3", func() *graph.Graph { return gen.Gnp(105, 200, 0.03, gen.PowerOfTwo(6)) },
		Params{K: 3, Seed: 11, SFactor: 1, Mode: SparseOnly},
		"c8978bb3247b4a706d57408a6ea38dd2c569d05e6e9a4ce9afe1ac93da6f6f85"},
	{"dense-only-k3", func() *graph.Graph { return gen.Gnp(106, 200, 0.03, gen.PowerOfTwo(6)) },
		Params{K: 3, Seed: 12, SFactor: 1, Mode: DenseOnly},
		"cc96fc19f175b5527f34c88c7e00742c646f920384ce5d471b511f5888ee0b49"},
	{"deterministic-k3", func() *graph.Graph { return gen.Gnp(107, 200, 0.03, gen.Uniform(1, 5)) },
		Params{K: 3, Seed: 13, SFactor: 1, DeterministicLandmarks: true},
		"27c4ff51526ead12c6666852ac07a498cca669fb8e325cb4d91e9cb55e0b406d"},
}

// goldenPairs is the size of each case's seeded route sample.
const goldenPairs = 600

// schemeDigest hashes every NodeTableBits, each storage category, the
// build report, every level's routing pointer, and the answers
// (delivered, cost, hops, header bits) to a seeded sample of pairs.
func schemeDigest(t *testing.T, s *Scheme) string {
	t.Helper()
	h := sha256.New()
	g := s.G()
	for u := 0; u < g.N(); u++ {
		fmt.Fprintf(h, "bits %d %d\n", u, s.NodeTableBits(graph.NodeID(u)))
	}
	for _, c := range s.acct.Categories() {
		fmt.Fprintf(h, "cat %s %d\n", c, s.CategoryBits(c))
	}
	fmt.Fprintf(h, "report %+v\n", s.Report)
	for u := range s.levels {
		for i, l := range s.levels[u] {
			fmt.Fprintf(h, "level %d %d %t %t %d %d %d %d\n",
				u, i, l.dense, l.skip, l.center, l.bound, l.scale, l.treeIdx)
		}
	}
	digestRoutes(t, h, s)
	return hex.EncodeToString(h.Sum(nil))
}

func digestRoutes(t *testing.T, h hash.Hash, s *Scheme) {
	t.Helper()
	g := s.G()
	e := sim.NewEngine(g)
	rng := xrand.New(0x901d)
	for q := 0; q < goldenPairs; q++ {
		u := graph.NodeID(rng.Intn(g.N()))
		v := graph.NodeID(rng.Intn(g.N()))
		res, err := e.Route(s, u, g.Name(v))
		if err != nil {
			t.Fatalf("route %d→%d: %v", u, v, err)
		}
		fmt.Fprintf(h, "route %d %d %t %.17g %d %d\n", u, v, res.Delivered, res.Cost, res.Hops, res.MaxHeaderBits)
	}
}

// TestGoldenSchemes pins each golden case's digest.
func TestGoldenSchemes(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			s := mustBuild(t, c.g(), c.p)
			if got := schemeDigest(t, s); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
			// A loaded scheme rebuilds its trees and tries from the
			// snapshot: it must be the same scheme.
			loaded, err := FromSnapshot(s.Export())
			if err != nil {
				t.Fatal(err)
			}
			if got := schemeDigest(t, loaded); got != c.want {
				t.Errorf("loaded digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestGoldenAtAnyCoreCount builds the golden cases at GOMAXPROCS 1 and
// 4: the parallel passes of the build must not change the scheme.
func TestGoldenAtAnyCoreCount(t *testing.T) {
	for _, procs := range []int{1, 4} {
		func() {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			for _, c := range goldenCases {
				s := mustBuild(t, c.g(), c.p)
				if got := schemeDigest(t, s); got != c.want {
					t.Errorf("GOMAXPROCS=%d %s: digest %s, want %s", procs, c.name, got, c.want)
				}
			}
		}()
	}
}
