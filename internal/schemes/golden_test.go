package schemes_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/schemes"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
	"compactroute/internal/xrand"
)

// kindGoldenGraphs are the small instances every non-paper kind is
// pinned on (the paper scheme is pinned in internal/core).
var kindGoldenGraphs = []struct {
	name string
	g    func() *graph.Graph
	k    int
}{
	{"gnp-120-k2", func() *graph.Graph { return gen.Gnp(201, 120, 0.06, gen.Uniform(1, 5)) }, 2},
	{"gnp-240-k3", func() *graph.Graph { return gen.Gnp(202, 240, 0.03, gen.PowerOfTwo(6)) }, 3},
	{"geometric-180-k3", func() *graph.Graph { return gen.Geometric(203, 180, 0.15) }, 3},
}

// kindGolden pins each kind's digest per graph, in kindGoldenGraphs
// order. A change to a walk that is meant to be behaviour-preserving
// must leave every hash as it is.
var kindGolden = []struct {
	kind string
	want [3]string
}{
	{"apcover", [3]string{
		"42357fc72268655285225a69620ec61adab7cfe4436c8dd4d07631f894588c6d",
		"30b66c827afdcd14a99f31bad0795c1787c2a81988b8278e4cd679583caaa00e",
		"2c23e8e94463fc32fedc9b517306613f0350690ed8000357e7ddd28518ac4f0d"}},
	{"fulltable", [3]string{
		"12837bbb3e77e2192f0afbcf137d3402be3462c92b5149c418ba2a95bfd334c9",
		"fb50123ab720bbfb23edbb834942103085d481e56befbfd52deb0830ecca2a83",
		"3fa759a552cb904936049ddcd4d6f0bfa1f93e487628764adb408d7f324c5f3c"}},
	{"landmark", [3]string{
		"0b4ccc531adf8c1b62d1249661e18728f5d976f65fb0a6f92dd004333ee1cf20",
		"4d58a25553c106912c1f65ef72793f345727b2f84548d0e51a4a0d3b6d7e8cad",
		"322777602f703d83829488430d2ad70112b514d50ed4cf4334331dac1a50218f"}},
	{"tz", [3]string{
		"2b25e8771a95e9de2649fa64c22f17f9c562cf342be3a56d190c221a2038c6f4",
		"c38de55ad7df9f0684be0a604d06ae60d84a18dcd450efed464f3e151467997d",
		"8c60c5d8090101916959ebfced98952ea96e9e4527ce8df37a6ed93bfdabfd24"}},
}

// kindGoldenPairs is the size of each graph's seeded route sample.
const kindGoldenPairs = 500

// kindDigest hashes the scheme's table bits and the answers (delivered,
// cost, hops, header bits) to a seeded sample of pairs.
func kindDigest(t *testing.T, g *graph.Graph, s schemes.Scheme) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "bits %d %.17g\n", s.MaxTableBits(), s.MeanTableBits())
	e := sim.NewEngine(g)
	rng := xrand.New(0x61d3)
	for q := 0; q < kindGoldenPairs; q++ {
		u := graph.NodeID(rng.Intn(g.N()))
		v := graph.NodeID(rng.Intn(g.N()))
		res, err := e.Route(s, u, g.Name(v))
		if err != nil {
			t.Fatalf("%s: route %d→%d: %v", s.Name(), u, v, err)
		}
		fmt.Fprintf(h, "route %d %d %t %.17g %d %d\n", u, v, res.Delivered, res.Cost, res.Hops, res.MaxHeaderBits)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenKinds pins the walk of every baseline kind.
func TestGoldenKinds(t *testing.T) {
	for gi, c := range kindGoldenGraphs {
		g := c.g()
		if !g.Connected() {
			t.Fatalf("%s: not connected", c.name)
		}
		apsp := sssp.AllPairs(g)
		for _, kg := range kindGolden {
			t.Run(c.name+"/"+kg.kind, func(t *testing.T) {
				s, err := schemes.Build(g, apsp, schemes.Config{Kind: kg.kind, K: c.k, Seed: 17})
				if err != nil {
					t.Fatal(err)
				}
				if got := kindDigest(t, g, s); got != kg.want[gi] {
					t.Errorf("digest %s, want %s", got, kg.want[gi])
				}
			})
		}
	}
}
