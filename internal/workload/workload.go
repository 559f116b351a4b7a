// Package workload generates named traffic patterns over a network:
// deterministic, seedable streams of (src, dst) queries for driving
// the serving layer — the paper's economics only pay off under
// sustained query traffic, so the experiments need realistic (and
// adversarial) shapes of it, not just uniform pairs.
//
// Patterns:
//
//   - uniform: every ordered pair equally likely — the baseline the
//     stretch tables are measured over.
//   - zipf: Zipf-skewed hotspots — a seeded rank permutation of the
//     nodes with P(rank i) ∝ 1/(i+1)^s, applied independently to both
//     endpoints. Models the few-popular-destinations shape of real
//     traffic: queries concentrate on a few hot nodes.
//   - gravity: P(u,v) ∝ deg(u)·deg(v) — the classic gravity model
//     with node degree as mass; hubs talk to hubs.
//   - local: src uniform, dst uniform within a small hop-ball around
//     src — neighbor-local traffic where compact schemes should shine
//     (short routes, bounded additive loss).
//   - adversarial: replays the worst pairs a ranking function can
//     find among a sampled candidate set — by convention the measured
//     stretch, so the stream hammers exactly where the scheme's O(k)
//     guarantee is loosest.
//
// Streams are infinite and cheap; every draw flows through one seeded
// RNG, so a (pattern, graph, options) triple reproduces the same query
// sequence on every run.
package workload

import (
	"fmt"
	"math"
	"sort"

	"compactroute/internal/graph"
	"compactroute/internal/xrand"
)

// Query is one (src, dst) request by external node names — the form
// the serving layer and HTTP surface speak.
type Query struct {
	SrcName, DstName uint64
}

// Pattern names a traffic shape.
type Pattern string

// The named traffic shapes (see the package comment for semantics).
const (
	Uniform     Pattern = "uniform"     // independent uniform pairs
	Zipf        Pattern = "zipf"        // Zipf-skewed destination hotspots
	Gravity     Pattern = "gravity"     // P(u,v) ∝ deg(u)·deg(v)
	Local       Pattern = "local"       // destinations in a small hop-ball
	Adversarial Pattern = "adversarial" // replays the worst-stretch pairs
)

// Patterns returns every pattern in canonical order.
func Patterns() []Pattern {
	return []Pattern{Uniform, Zipf, Gravity, Local, Adversarial}
}

// Options configures a stream. The zero value of every field selects
// a sensible default.
type Options struct {
	// Seed makes the stream reproducible. Zero is a valid seed. The
	// pattern's structure — zipf hot-node identities, adversarial
	// candidate sets — derives from Seed alone, so streams that share
	// a Seed aim at the same targets.
	Seed uint64
	// Fork varies the draw sequence without changing the pattern
	// structure: give each concurrent worker a distinct Fork and the
	// workers emit different queries against the SAME hotspots, so
	// the aggregate traffic keeps the pattern's shape. Zero is a
	// valid fork.
	Fork uint64
	// ZipfS is the zipf skew exponent s; 0 means 1.1.
	ZipfS float64
	// LocalHops is the hop radius of the local pattern's ball; 0 means 2.
	LocalHops int
	// Candidates is how many random ordered pairs the adversarial
	// pattern scores; 0 means 4096 (always capped by n·(n−1)).
	Candidates int
	// Keep is how many top-ranked pairs the adversarial pattern
	// replays; 0 means 64.
	Keep int
	// Rank scores a pair for the adversarial pattern (higher = worse);
	// by convention the measured stretch. Required for Adversarial,
	// ignored otherwise.
	Rank func(u, v graph.NodeID) float64
}

// Stream is an infinite deterministic query sequence. Not safe for
// concurrent use: give each worker its own stream (fork the seed).
type Stream struct {
	pattern Pattern
	rng     *xrand.RNG
	draw    func(r *xrand.RNG) Query
}

// Pattern identifies the stream's traffic shape.
func (s *Stream) Pattern() Pattern { return s.pattern }

// Next returns the next query.
func (s *Stream) Next() Query { return s.draw(s.rng) }

// New builds a stream of the given pattern over g.
func New(p Pattern, g *graph.Graph, o Options) (*Stream, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("workload: need at least 2 nodes, have %d", n)
	}
	s := &Stream{pattern: p, rng: xrand.New(xrand.Hash64(o.Seed^0x10adc0de, o.Fork))}
	switch p {
	case Uniform:
		s.draw = func(r *xrand.RNG) Query { return uniformPair(r, g) }
	case Zipf:
		exp := o.ZipfS
		if exp == 0 {
			exp = 1.1
		}
		if exp < 0 {
			return nil, fmt.Errorf("workload: zipf exponent %v < 0", exp)
		}
		// A seeded rank permutation keeps hotspots uncorrelated with
		// node ids (and thus with names and topology).
		perm := xrand.New(o.Seed ^ 0x21bf).Perm(n)
		cdf := make([]float64, n)
		total := 0.0
		for i := range cdf {
			total += 1 / math.Pow(float64(i+1), exp)
			cdf[i] = total
		}
		pick := func(r *xrand.RNG) graph.NodeID {
			return graph.NodeID(perm[searchCDF(cdf, r.Float64()*total)])
		}
		s.draw = func(r *xrand.RNG) Query { return distinctPair(r, g, pick) }
	case Gravity:
		cdf := make([]float64, n)
		total := 0.0
		for i := 0; i < n; i++ {
			total += float64(g.Degree(graph.NodeID(i)))
			cdf[i] = total
		}
		pick := func(r *xrand.RNG) graph.NodeID {
			return graph.NodeID(searchCDF(cdf, r.Float64()*total))
		}
		s.draw = func(r *xrand.RNG) Query { return distinctPair(r, g, pick) }
	case Local:
		hops := o.LocalHops
		if hops == 0 {
			hops = 2
		}
		if hops < 1 {
			return nil, fmt.Errorf("workload: local hop radius %d < 1", hops)
		}
		balls := make(map[graph.NodeID][]graph.NodeID)
		s.draw = func(r *xrand.RNG) Query {
			u := graph.NodeID(r.Intn(n))
			ball, ok := balls[u]
			if !ok {
				ball = hopBall(g, u, hops)
				balls[u] = ball
			}
			if len(ball) == 0 { // isolated node: fall back to uniform
				return uniformPair(r, g)
			}
			v := ball[r.Intn(len(ball))]
			return Query{g.Name(u), g.Name(v)}
		}
	case Adversarial:
		if o.Rank == nil {
			return nil, fmt.Errorf("workload: adversarial pattern needs a Rank function")
		}
		worst := worstPairs(g, o)
		if len(worst) == 0 {
			return nil, fmt.Errorf("workload: adversarial pattern found no pairs")
		}
		i := int(o.Fork % uint64(len(worst))) // stagger forked replays
		s.draw = func(r *xrand.RNG) Query {
			q := worst[i%len(worst)]
			i++
			return Query{g.Name(q.u), g.Name(q.v)}
		}
	default:
		return nil, fmt.Errorf("workload: unknown pattern %q (have %v)", p, Patterns())
	}
	return s, nil
}

func uniformPair(r *xrand.RNG, g *graph.Graph) Query {
	n := g.N()
	u := r.Intn(n)
	v := r.Intn(n - 1)
	if v >= u {
		v++
	}
	return Query{g.Name(graph.NodeID(u)), g.Name(graph.NodeID(v))}
}

// distinctPair draws both endpoints from pick, rejecting self-pairs
// (bounded: after a few collisions it forces a uniform dst).
func distinctPair(r *xrand.RNG, g *graph.Graph, pick func(*xrand.RNG) graph.NodeID) Query {
	u := pick(r)
	for i := 0; i < 16; i++ {
		if v := pick(r); v != u {
			return Query{g.Name(u), g.Name(v)}
		}
	}
	// Degenerate weights (one node holds all the mass): any other node.
	v := graph.NodeID(r.Intn(g.N() - 1))
	if v >= u {
		v++
	}
	return Query{g.Name(u), g.Name(v)}
}

// searchCDF returns the first index whose cumulative weight exceeds x.
func searchCDF(cdf []float64, x float64) int {
	i := sort.SearchFloat64s(cdf, x)
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

// hopBall returns every node within the given number of hops of u
// (unweighted BFS), excluding u itself.
func hopBall(g *graph.Graph, u graph.NodeID, hops int) []graph.NodeID {
	depth := map[graph.NodeID]int{u: 0}
	frontier := []graph.NodeID{u}
	var ball []graph.NodeID
	for d := 0; d < hops && len(frontier) > 0; d++ {
		var next []graph.NodeID
		for _, x := range frontier {
			g.Neighbors(x, func(e graph.Edge) bool {
				if _, seen := depth[e.To]; !seen {
					depth[e.To] = d + 1
					ball = append(ball, e.To)
					next = append(next, e.To)
				}
				return true
			})
		}
		frontier = next
	}
	return ball
}

type rankedPair struct {
	u, v  graph.NodeID
	score float64
}

// worstPairs samples candidate ordered pairs, scores them with Rank,
// and keeps the top o.Keep — ties and order broken deterministically.
func worstPairs(g *graph.Graph, o Options) []rankedPair {
	n := g.N()
	candidates := o.Candidates
	if candidates == 0 {
		candidates = 4096
	}
	if max := n * (n - 1); candidates > max {
		candidates = max
	}
	keep := o.Keep
	if keep == 0 {
		keep = 64
	}
	r := xrand.New(o.Seed ^ 0xadbeef)
	seen := make(map[[2]graph.NodeID]bool, candidates)
	pairs := make([]rankedPair, 0, candidates)
	for attempts := 0; len(pairs) < candidates && attempts < 20*candidates; attempts++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n - 1))
		if v >= u {
			v++
		}
		k := [2]graph.NodeID{u, v}
		if seen[k] {
			continue
		}
		seen[k] = true
		pairs = append(pairs, rankedPair{u: u, v: v, score: o.Rank(u, v)})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].score != pairs[j].score {
			return pairs[i].score > pairs[j].score
		}
		if pairs[i].u != pairs[j].u {
			return pairs[i].u < pairs[j].u
		}
		return pairs[i].v < pairs[j].v
	})
	if len(pairs) > keep {
		pairs = pairs[:keep]
	}
	return pairs
}
