// Package landmark implements §2.3 of the paper: the low-discrepancy
// landmark hierarchy used by sparse levels.
//
// A chain V = C₀ ⊇ C₁ ⊇ … ⊇ C_k = ∅ is sampled by keeping each member
// of C_{i−1} independently with probability (n/ln n)^{−1/k}. The rank
// of x is the largest j with x ∈ C_j. For every node u and level i,
// S(u,i) is the set of the ⌈16·n^{2/k}·ln n⌉ closest members of C_i
// (the paper's nearby landmarks; the 16 is tunable via SFactor),
// m(u,i) is the highest rank present in A(u,i), and the center c(u,i)
// is the closest member of C_{m(u,i)} — the landmark a sparse-level
// search routes through.
//
// Claims 1 and 2 (hitting and congestion of the sampled sets) hold
// with high probability; VerifyClaim1/VerifyClaim2 measure them on the
// actual instance, and VerifyLemma3 measures the sparse-neighborhood
// property they imply, one center at a time: GroupByCenter lists the
// phases (u, i) searching through each center c(u, i), and the check
// marks c's members once for all of them. To make routing
// deterministically complete, the S-set capacity at the top occupied
// rank is raised (if ever needed) so that every node's S contains *all*
// top-rank landmarks: the terminal phase of the routing scheme then
// always has a spanning tree to search (DESIGN.md substitution #1/#5).
package landmark

import (
	"fmt"
	"math"
	"slices"

	"compactroute/internal/decomp"
	"compactroute/internal/graph"
	"compactroute/internal/sssp"
	"compactroute/internal/xrand"
)

// Params configures the hierarchy.
type Params struct {
	// K is the trade-off parameter k ≥ 1.
	K int
	// SFactor scales the S-set capacity ⌈SFactor·n^{2/k}·ln n⌉.
	// The paper's constant is 16; experiments may scale it down
	// (DESIGN.md #5). Default 16.
	SFactor float64
	// Seed drives the sampling (ignored when Deterministic).
	Seed uint64
	// Deterministic replaces the random sampling with the greedy
	// hitting-set derandomization of §2.3 (see derand.go): Claim 1
	// then holds by construction instead of whp.
	Deterministic bool
}

func (p *Params) normalize() {
	if p.K < 1 {
		p.K = 1
	}
	if p.SFactor <= 0 {
		p.SFactor = 16
	}
}

// Hierarchy is the landmark structure of one graph.
type Hierarchy struct {
	g   *graph.Graph
	all []*sssp.Result
	k   int

	rank    []int8 // rank(x): largest j with x ∈ C_j
	top     int    // largest j with C_j non-empty
	sCap    int    // base S-set capacity
	sCapTop int    // capacity at the top rank (≥ |C_top| for coverage)

	// s[u][i] = S(u,i), each in (distance, name) order.
	s [][][]graph.NodeID
	// members[c] = {v : c ∈ S(v)}, sorted, for every landmark c.
	members map[graph.NodeID][]graph.NodeID
	// m[u][i], c[u][i] for i ∈ 0..k.
	mRank   [][]int8
	centers [][]graph.NodeID
}

// Build samples the hierarchy and computes all derived structures.
// dec supplies the balls A(u,i); all must be the same results dec was
// built from.
func Build(g *graph.Graph, all []*sssp.Result, dec *decomp.Decomposition, p Params) (*Hierarchy, error) {
	p.normalize()
	if len(all) != g.N() {
		return nil, fmt.Errorf("landmark: got %d results for %d nodes", len(all), g.N())
	}
	if dec.K() != p.K {
		return nil, fmt.Errorf("landmark: decomposition k=%d, params k=%d", dec.K(), p.K)
	}
	n := g.N()
	h := &Hierarchy{g: g, all: all, k: p.K, rank: make([]int8, n)}

	if p.Deterministic {
		h.rank, h.top = buildDeterministicRanks(g, dec, p.K)
	} else {
		// Sample C₁..C_{k−1}.
		rng := xrand.New(p.Seed ^ 0x1a2dbeef)
		keep := math.Pow(float64(n)/math.Log(math.Max(float64(n), 3)), -1/float64(p.K))
		for v := 0; v < n; v++ {
			r := 0
			for j := 1; j <= p.K-1; j++ {
				if rng.Bool(keep) {
					r = j
				} else {
					break
				}
			}
			h.rank[v] = int8(r)
			if r > h.top {
				h.top = r
			}
		}
	}

	// S-set capacity.
	logn := math.Log(math.Max(float64(n), 2))
	h.sCap = int(math.Ceil(p.SFactor * math.Pow(float64(n), 2/float64(p.K)) * logn))
	if h.sCap < 1 {
		h.sCap = 1
	}
	// Terminal coverage: S(v, top) must hold every top-rank landmark.
	topCount := 0
	for v := 0; v < n; v++ {
		if int(h.rank[v]) == h.top {
			topCount++
		}
	}
	h.sCapTop = h.sCap
	if topCount > h.sCapTop {
		h.sCapTop = topCount
	}

	h.computeS()
	h.computeCenters(dec)
	return h, nil
}

// computeS fills the S sets, each u's independently (the nodes fan
// out), then the members transpose in u order: a last-seen mark lists
// each u once per landmark, so every list comes out ascending.
func (h *Hierarchy) computeS() {
	n := h.g.N()
	h.s = make([][][]graph.NodeID, n)
	sssp.ParallelFor(n, 0, func(u int) {
		h.s[u] = make([][]graph.NodeID, h.top+1)
		for i := 0; i <= h.top; i++ {
			h.s[u][i] = h.all[u].Closest(h.SCapAt(i), func(v graph.NodeID) bool {
				return int(h.rank[v]) >= i
			})
		}
	})
	h.members = make(map[graph.NodeID][]graph.NodeID)
	lastSeen := make([]int32, n) // 1 + the last u whose S listed c
	for u := 0; u < n; u++ {
		for _, set := range h.s[u] {
			for _, c := range set {
				if lastSeen[c] != int32(u)+1 {
					lastSeen[c] = int32(u) + 1
					h.members[c] = append(h.members[c], graph.NodeID(u))
				}
			}
		}
	}
}

func (h *Hierarchy) computeCenters(dec *decomp.Decomposition) {
	n := h.g.N()
	h.mRank = make([][]int8, n)
	h.centers = make([][]graph.NodeID, n)
	for u := 0; u < n; u++ {
		h.mRank[u] = make([]int8, h.k+1)
		h.centers[u] = make([]graph.NodeID, h.k+1)
		for i := 0; i <= h.k; i++ {
			maxR := int8(0)
			for _, v := range dec.A(graph.NodeID(u), i) {
				if h.rank[v] > maxR {
					maxR = h.rank[v]
				}
			}
			h.mRank[u][i] = maxR
			c := h.all[u].Closest(1, func(v graph.NodeID) bool {
				return h.rank[v] >= maxR
			})
			if len(c) == 0 {
				// Unreachable in connected graphs: u itself has rank ≥ 0.
				c = []graph.NodeID{graph.NodeID(u)}
			}
			h.centers[u][i] = c[0]
		}
	}
}

// K returns the parameter k.
func (h *Hierarchy) K() int { return h.k }

// Rank returns the rank of v.
func (h *Hierarchy) Rank(v graph.NodeID) int { return int(h.rank[v]) }

// TopRank returns the largest occupied rank.
func (h *Hierarchy) TopRank() int { return h.top }

// LevelSize returns |C_i|.
func (h *Hierarchy) LevelSize(i int) int {
	c := 0
	for v := range h.rank {
		if int(h.rank[v]) >= i {
			c++
		}
	}
	return c
}

// SCap returns the base S-set capacity.
func (h *Hierarchy) SCap() int { return h.sCap }

// SCapAt returns the S-set capacity at a level (top level may be
// raised for terminal coverage).
func (h *Hierarchy) SCapAt(i int) int {
	if i == h.top {
		return h.sCapTop
	}
	return h.sCap
}

// S returns S(u,i) in (distance, name) order (do not mutate). Levels
// above the top occupied rank are empty.
func (h *Hierarchy) S(u graph.NodeID, i int) []graph.NodeID {
	if i > h.top || h.s == nil {
		return nil
	}
	return h.s[u][i]
}

// InS reports whether c ∈ S(u) = ∪_i S(u,i). The build checks Lemma 3
// per center instead (VerifyLemma3); InS is the per-pair form tests
// check it against.
func (h *Hierarchy) InS(u, c graph.NodeID) bool {
	_, ok := slices.BinarySearch(h.members[c], u)
	return ok
}

// Members returns {v : c ∈ S(v)}, sorted — the span of the landmark
// tree T(c) (do not mutate).
func (h *Hierarchy) Members(c graph.NodeID) []graph.NodeID { return h.members[c] }

// M returns m(u,i), the highest rank present in A(u,i).
func (h *Hierarchy) M(u graph.NodeID, i int) int { return int(h.mRank[u][i]) }

// Center returns c(u,i), the closest rank-m(u,i) landmark to u.
func (h *Hierarchy) Center(u graph.NodeID, i int) graph.NodeID { return h.centers[u][i] }

// --- verification of the probabilistic claims ---

// VerifyClaim1 checks Claim 1 on every (u, radius-index) ball: if
// 4·(ln n)^{(k−j)/k}·n^{j/k} ≤ |B| then B ∩ C_j ≠ ∅. Returns the
// number of (ball, j) pairs checked and how many failed.
func (h *Hierarchy) VerifyClaim1(dec *decomp.Decomposition) (checked, violations int) {
	n := float64(h.g.N())
	logn := math.Log(math.Max(n, 2))
	for u := 0; u < h.g.N(); u++ {
		for i := 0; i <= dec.Cap(); i++ {
			ball := h.all[u].Ball(dec.Radius(i))
			for j := 0; j <= h.k-1; j++ {
				thr := 4 * math.Pow(logn, float64(h.k-j)/float64(h.k)) * math.Pow(n, float64(j)/float64(h.k))
				if float64(len(ball)) < thr {
					continue
				}
				checked++
				hit := false
				for _, v := range ball {
					if int(h.rank[v]) >= j {
						hit = true
						break
					}
				}
				if !hit {
					violations++
				}
			}
		}
	}
	return checked, violations
}

// VerifyClaim2 checks Claim 2 on every (u, radius-index) ball: if
// |B| < 4·(ln n)^{(k−j−1)/k}·n^{(j+2)/k} then |B ∩ C_j| ≤
// 16·n^{2/k}·ln n. Returns pairs checked and failures.
func (h *Hierarchy) VerifyClaim2(dec *decomp.Decomposition) (checked, violations int) {
	n := float64(h.g.N())
	logn := math.Log(math.Max(n, 2))
	capC := 16 * math.Pow(n, 2/float64(h.k)) * logn
	for u := 0; u < h.g.N(); u++ {
		for i := 0; i <= dec.Cap(); i++ {
			ball := h.all[u].Ball(dec.Radius(i))
			for j := 0; j <= h.k-1; j++ {
				thr := 4 * math.Pow(logn, float64(h.k-j-1)/float64(h.k)) * math.Pow(n, float64(j+2)/float64(h.k))
				if float64(len(ball)) >= thr {
					continue
				}
				checked++
				count := 0
				for _, v := range ball {
					if int(h.rank[v]) >= j {
						count++
					}
				}
				if float64(count) > capC {
					violations++
				}
			}
		}
	}
	return checked, violations
}

// Phase is one (u, i) pair: node u's search at level i.
type Phase struct {
	U graph.NodeID
	I int32
}

// Phases groups (u, i) phases by their center c(u, i) as a CSR: center
// c's phases are Of(c), in (u, i) order.
type Phases struct {
	off    []int32 // c's phases are phases[off[c]:off[c+1]]
	phases []Phase
}

// Of returns the phases whose center is c (do not mutate).
func (p *Phases) Of(c graph.NodeID) []Phase {
	lo, hi := p.off[c], p.off[c+1]
	return p.phases[lo:hi:hi]
}

// GroupByCenter groups the phases (u, i), i ∈ 0..k, that sparse selects
// by their center c(u, i): counts per center, prefix sums, then a fill
// in u order.
func (h *Hierarchy) GroupByCenter(sparse func(u graph.NodeID, i int) bool) *Phases {
	n := h.g.N()
	p := &Phases{off: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		for i := 0; i <= h.k; i++ {
			if sparse(graph.NodeID(u), i) {
				p.off[h.centers[u][i]+1]++
			}
		}
	}
	for c := 1; c <= n; c++ {
		p.off[c] += p.off[c-1]
	}
	p.phases = make([]Phase, p.off[n])
	next := slices.Clone(p.off[:n])
	for u := 0; u < n; u++ {
		for i := 0; i <= h.k; i++ {
			if sparse(graph.NodeID(u), i) {
				c := h.centers[u][i]
				p.phases[next[c]] = Phase{U: graph.NodeID(u), I: int32(i)}
				next[c]++
			}
		}
	}
	return p
}

// VerifyLemma3 checks the sparse-neighborhood property on the
// instance: for every u, sparse level i, and v ∈ E(u,i), the center
// c(u,i) lies in S(v). Returns triples checked and failures. Failures
// are possible in principle (the lemma is whp) — the routing scheme
// repairs them constructively; see core. The check runs per center:
// the centers fan out, each marks its members {v : c ∈ S(v)} once, so
// every v ∈ E(u,i) of its phases is one load; the integer counts are
// summed in center order.
func (h *Hierarchy) VerifyLemma3(dec *decomp.Decomposition) (checked, violations int) {
	n := h.g.N()
	byCenter := h.GroupByCenter(func(u graph.NodeID, i int) bool { return !dec.Dense(u, i) })
	checkedAt, violationsAt := make([]int, n), make([]int, n)
	sssp.ParallelFor(n, 0, func(c int) {
		phases := byCenter.Of(graph.NodeID(c))
		if len(phases) == 0 {
			return
		}
		inS := make([]bool, n)
		for _, v := range h.members[graph.NodeID(c)] {
			inS[v] = true
		}
		checked, violations := 0, 0
		for _, ph := range phases {
			for _, v := range dec.E(ph.U, int(ph.I)) {
				checked++
				if !inS[v] {
					violations++
				}
			}
		}
		checkedAt[c], violationsAt[c] = checked, violations
	})
	for c := 0; c < n; c++ {
		checked += checkedAt[c]
		violations += violationsAt[c]
	}
	return checked, violations
}
