// Package core assembles the paper's primary contribution (Theorem 1):
// a name-independent, scale-free compact routing scheme for arbitrary
// weighted graphs with stretch O(k) and Õ(n^{1/k})-bit tables whose
// sizes are independent of the aspect ratio.
//
// Construction (§3):
//
//   - the sparse/dense decomposition classifies each node's k levels
//     (package decomp);
//   - sparse levels route through the nearest highest-rank landmark
//     c(u,i): its tree T(c) spans {v : c ∈ S(v)} and carries the
//     Lemma 4 error-reporting trie (packages landmark, tree, nitree);
//   - dense levels route on the node's home tree W(u,i) in the sparse
//     cover TC_{k,2^j}(G_j) at scale j = a(u,i), searched with the
//     Lemma 7 rendezvous structure (packages cover, covroute);
//   - the router iterates phases i = 1..k from the source, following
//     §3.3/§3.6: each failed phase reports back to the source, whose
//     label in the relevant tree rides in the header as the return
//     address. The terminal level is always sparse with E(u,k) = V, so
//     delivery is guaranteed deterministically (DESIGN.md #1).
//
// Lemma 3 is a whp property; Build *verifies* it and constructively
// repairs any violated (u,i) pair by forcing E(u,i) into the members
// of T(c(u,i)). Repairs are counted in the BuildReport and their
// storage is charged honestly, so the experiments can show how rare
// they are (with paper constants: zero on all tested instances).
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"compactroute/internal/bitsize"
	"compactroute/internal/cover"
	"compactroute/internal/covroute"
	"compactroute/internal/decomp"
	"compactroute/internal/graph"
	"compactroute/internal/landmark"
	"compactroute/internal/nitree"
	"compactroute/internal/sssp"
	"compactroute/internal/tree"
	"compactroute/internal/xrand"
)

// Mode selects the decomposition ablation (experiment T9).
type Mode uint8

const (
	// Combined is the paper's scheme: dense levels use covers, sparse
	// levels use landmark trees.
	Combined Mode = iota
	// SparseOnly treats every level as sparse. Coverage survives but
	// Lemma 3 no longer protects dense levels, so forced memberships
	// (and storage) blow up — the measured cost of dropping the dense
	// strategy.
	SparseOnly
	// DenseOnly uses the cover strategy on every non-terminal level.
	// Sparse levels lose the Lemma 2 guarantee, so searches miss and
	// fall through to the terminal phase — the measured stretch cost
	// of dropping the sparse strategy.
	DenseOnly
)

// String names the ablation for tables and flags.
func (m Mode) String() string {
	switch m {
	case SparseOnly:
		return "sparse-only"
	case DenseOnly:
		return "dense-only"
	default:
		return "combined"
	}
}

// Params configures a scheme build.
type Params struct {
	// K is the space-stretch trade-off parameter, k ≥ 1.
	K int
	// Seed drives all randomized choices (landmark sampling, hashes).
	Seed uint64
	// SFactor scales the landmark S-set capacity ⌈SFactor·n^{2/k}·ln n⌉.
	// The paper's constant is 16; 0 means 16. Experiments may scale it
	// down (DESIGN.md #5).
	SFactor float64
	// LoadFactor scales the Lemma 4 bucket capacity; 0 means 1.
	LoadFactor float64
	// DenseGap is Definition 2's gap bound; 0 means the paper's 3.
	DenseGap int
	// Mode selects the T9 ablation; default Combined.
	Mode Mode
	// DeterministicLandmarks uses the §2.3 derandomization (greedy
	// hitting sets) instead of sampling; Claim 1 then holds by
	// construction and the build ignores Seed for landmark selection.
	DeterministicLandmarks bool
}

// BuildReport records what the probabilistic machinery did.
type BuildReport struct {
	// ForcedMembers counts nodes added to landmark trees to repair
	// Lemma 3 violations (0 when the whp property held).
	ForcedMembers int
	// Lemma3Checked/Lemma3Violations are the raw verification counts.
	Lemma3Checked, Lemma3Violations int
	// TrieLoadViolations counts Lemma 4 structures that needed their
	// bucket capacity raised beyond the theoretical cap.
	TrieLoadViolations int
	// LandmarkTrees and CoverTrees count the materialized trees.
	LandmarkTrees, CoverTrees int
	// CoverScales counts distinct dense scales (the O(log n) quantity
	// of §1.2).
	CoverScales int
	// DenseLevels and SparseLevels count (u, i ≥ 1) pairs by class as
	// routed (after ablation overrides).
	DenseLevels, SparseLevels int
}

// levelInfo is one node's routing state for one phase.
type levelInfo struct {
	dense bool
	// skip marks the degenerate dense level 0: F(u,0) = {u}, so the
	// phase has nothing to search and advances for free.
	skip bool
	// Sparse strategy.
	center graph.NodeID
	bound  uint8
	// Dense strategy.
	scale   int32 // j = a(u,i)
	treeIdx int32 // index of W(u,i) within covers[scale].cov.Trees
}

// landmarkTree bundles one center's tree with its Lemma 4 trie.
type landmarkTree struct {
	t  *tree.Tree
	ni *nitree.Scheme
}

// coverAtScale bundles one scale's cover with per-tree Lemma 7 state.
type coverAtScale struct {
	cov    *cover.Cover
	routes []*covroute.Scheme
}

// Scheme is a built routing scheme. It implements sim.Router.
type Scheme struct {
	g      *graph.Graph
	k      int
	mode   Mode
	params Params // normalized build parameters, kept for persistence
	dec    *decomp.Decomposition
	lm     *landmark.Hierarchy
	trees  map[graph.NodeID]*landmarkTree
	covers map[int32]*coverAtScale
	// levels[u][i] holds phase i's routing state for u, i ∈ 0..k.
	// Phase 0 is the §3.7 analysis' iteration 0: a search of u's own
	// landmark tree covering E(u,0) (see DESIGN.md #1) — without it,
	// nearby destinations in sparse neighborhoods would pay the
	// O(k·2^{a(u,1)}) phase-1 cost and the stretch would not be O(k).
	levels [][]levelInfo
	// selfLabels[u] caches λ(T(c(u,i)), u) per level for the return
	// address (part of u's storage).
	selfLabels [][]treerouteLabel

	Report BuildReport
	acct   *bitsize.Accountant
}

// treerouteLabel alias keeps struct literals short.
type treerouteLabel = labelT

// Build constructs the scheme over a connected graph. It computes the
// all-pairs shortest paths it needs (in parallel); use BuildWithAPSP
// to share precomputed results across schemes.
func Build(g *graph.Graph, p Params) (*Scheme, error) {
	return BuildWithAPSP(g, sssp.AllPairsParallel(g, 0), p)
}

// BuildWithAPSP is Build with precomputed per-node shortest paths
// (sssp.AllPairs output), which experiments share across schemes.
func BuildWithAPSP(g *graph.Graph, all []*sssp.Result, p Params) (*Scheme, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("core: graph must be connected (route within components by building per component)")
	}
	if p.K < 1 {
		return nil, fmt.Errorf("core: k must be ≥ 1, got %d", p.K)
	}
	if p.SFactor == 0 {
		p.SFactor = 16
	}
	if p.LoadFactor == 0 {
		p.LoadFactor = 1
	}
	if p.DenseGap == 0 {
		p.DenseGap = 3
	}

	dec, err := decomp.Build(g, all, decomp.Params{K: p.K, DenseGap: p.DenseGap})
	if err != nil {
		return nil, err
	}
	lm, err := landmark.Build(g, all, dec, landmark.Params{
		K: p.K, SFactor: p.SFactor, Seed: p.Seed, Deterministic: p.DeterministicLandmarks,
	})
	if err != nil {
		return nil, err
	}
	s := &Scheme{
		g:      g,
		k:      p.K,
		mode:   p.Mode,
		params: p,
		dec:    dec,
		lm:     lm,
		trees:  make(map[graph.NodeID]*landmarkTree),
		covers: make(map[int32]*coverAtScale),
		levels: make([][]levelInfo, g.N()),
	}
	checked, violations := lm.VerifyLemma3(dec)
	s.Report.Lemma3Checked, s.Report.Lemma3Violations = checked, violations

	if err := s.classifyLevels(); err != nil {
		return nil, err
	}
	if err := s.buildSparseSide(all, p); err != nil {
		return nil, err
	}
	if err := s.buildDenseSide(p); err != nil {
		return nil, err
	}
	s.cacheSelfLabels()
	s.account()
	return s, nil
}

// classifyLevels fixes each (u,i) phase strategy, applying ablations.
func (s *Scheme) classifyLevels() error {
	for u := 0; u < s.g.N(); u++ {
		infos := make([]levelInfo, s.k+1)
		for i := 0; i <= s.k; i++ {
			dense := s.dec.Dense(graph.NodeID(u), i)
			switch s.mode {
			case SparseOnly:
				if i > 0 {
					dense = false
				}
				// Dense level 0 keeps its skip: F(u,0) = {u} has
				// nothing to search under either strategy.
			case DenseOnly:
				if i > 0 && i < s.k {
					dense = true
				} else if i == s.k {
					dense = false // terminal phase must stay sparse
				}
			}
			info := levelInfo{dense: dense}
			switch {
			case i == 0 && dense:
				// F(u,0) = B(u, 2^{-1}) = {u}: nothing to search.
				info.skip = true
			case dense:
				info.scale = int32(s.dec.Range(graph.NodeID(u), i))
				s.Report.DenseLevels++
			default:
				info.center = s.lm.Center(graph.NodeID(u), i)
				s.Report.SparseLevels++
			}
			infos[i] = info
		}
		s.levels[u] = infos
	}
	return nil
}

// buildSparseSide materializes the landmark trees T(c) with their
// Lemma 4 tries and the search bounds b(u,i), forcing coverage where
// Lemma 3 failed.
//
// Per §3.2 a tree exists for *every* landmark in anyone's S set (not
// only the centers some node actually routes through); this keeps the
// storage profile independent of the aspect ratio, since the S sets
// are metric-local and Δ-free.
//
// Each center is one pass, independent and deterministic (each trie is
// seeded from its center's id), so the centers fan out. A pass gathers
// the tree's targets, builds the tree and its trie, and sets b(u,i) for
// the phases searching through it; each (u,i) has one center, so no two
// passes write the same level.
func (s *Scheme) buildSparseSide(all []*sssp.Result, p Params) error {
	n := s.g.N()
	phases := s.lm.GroupByCenter(func(u graph.NodeID, i int) bool {
		info := &s.levels[u][i]
		return !info.dense && !info.skip
	})
	var centers []graph.NodeID
	for c := graph.NodeID(0); int(c) < n; c++ {
		if len(s.lm.Members(c)) > 0 || len(phases.Of(c)) > 0 {
			centers = append(centers, c)
		}
	}
	built := make([]*landmarkTree, len(centers))
	forced := make([]int, len(centers))
	errs := make([]error, len(centers))
	sssp.ParallelFor(len(centers), 0, func(ci int) {
		c := centers[ci]
		sc := centerScratchPool.Get().(*centerScratch)
		if len(sc.mark) < n {
			sc.mark = make([]int32, n)
		}
		// mark[v] is nonzero once v is a target; once the tree is
		// built it holds 1 + v's tree index.
		mark := sc.mark
		targets := append(sc.targets[:0], s.lm.Members(c)...)
		for _, v := range targets {
			mark[v] = -1
		}
		// Every E(u,i) the router will search through c (the
		// constructive Lemma 3 repair) and the sources themselves,
		// which hold their return labels, join the members.
		force := func(v graph.NodeID) {
			if mark[v] == 0 {
				mark[v] = -1
				targets = append(targets, v)
				forced[ci]++
			}
		}
		for _, ph := range phases.Of(c) {
			force(ph.U)
			for _, v := range s.dec.E(ph.U, int(ph.I)) {
				force(v)
			}
		}
		t, err := tree.FromPaths(s.g, all[c], targets)
		if err != nil {
			errs[ci] = fmt.Errorf("core: tree of center %d: %w", c, err)
			return
		}
		ni, err := nitree.New(t, nitree.Params{
			K:          s.k,
			UniverseN:  n,
			LoadFactor: p.LoadFactor,
			Seed:       xrand.Hash64(p.Seed, uint64(c)),
		})
		if err != nil {
			errs[ci] = fmt.Errorf("core: trie of center %d: %w", c, err)
			return
		}
		built[ci] = &landmarkTree{t: t, ni: ni}
		// b(u,i): the minimal trie depth finding all of E(u,i) in
		// T(c) (§3.1), from the bounds the trie recorded while
		// filling its buckets.
		for i := 0; i < t.Len(); i++ {
			mark[t.Node(i)] = int32(i) + 1
		}
		for _, ph := range phases.Of(c) {
			b := 1
			for _, v := range s.dec.E(ph.U, int(ph.I)) {
				mb := 0
				if ti := mark[v]; ti > 0 {
					mb = ni.MinBoundOf(int(ti) - 1)
				}
				if mb == 0 {
					// Unreachable: E(u,i) was forced into the tree.
					mb = s.k
				}
				if mb > b {
					b = mb
				}
			}
			s.levels[ph.U][ph.I].bound = uint8(b)
		}
		for i := 0; i < t.Len(); i++ {
			mark[t.Node(i)] = 0
		}
		sc.targets = targets
		centerScratchPool.Put(sc)
	})
	for ci, err := range errs {
		if err != nil {
			return err
		}
		s.Report.ForcedMembers += forced[ci]
		if built[ci].ni.LoadViolation {
			s.Report.TrieLoadViolations++
		}
		s.trees[centers[ci]] = built[ci]
	}
	s.Report.LandmarkTrees = len(s.trees)
	return nil
}

// centerScratch is one landmark pass's working memory, pooled for the
// reason tree's constructor pools its own: arrays of a tree's size
// freed among the arrays the scheme keeps would scatter those over more
// pages, which the walk pays for. A pass that fails drops its scratch.
type centerScratch struct {
	mark    []int32 // per graph id; all zero between passes
	targets []graph.NodeID
}

var centerScratchPool = sync.Pool{New: func() any { return new(centerScratch) }}

// buildDenseSide materializes the covers of the scales dense levels
// use and resolves each (u,i) to its home tree W(u,i).
func (s *Scheme) buildDenseSide(p Params) error {
	scales := make(map[int32]bool)
	for u := range s.levels {
		for i := range s.levels[u] {
			if s.levels[u][i].dense && !s.levels[u][i].skip {
				scales[s.levels[u][i].scale] = true
			}
		}
	}
	s.Report.CoverScales = len(scales)
	scaleList := make([]int32, 0, len(scales))
	for j := range scales {
		scaleList = append(scaleList, j)
	}
	sort.Slice(scaleList, func(i, j int) bool { return scaleList[i] < scaleList[j] })
	covBuilt := make([]*coverAtScale, len(scaleList))
	covErrs := make([]error, len(scaleList))
	// Per-scale covers are independent; fan out across scales.
	sssp.ParallelFor(len(scaleList), 0, func(si int) {
		j := scaleList[si]
		member := make([]bool, s.g.N())
		for v := 0; v < s.g.N(); v++ {
			if s.dec.InRangeSet(graph.NodeID(v), int(j)) {
				member[v] = true
			}
		}
		cov, err := cover.Build(s.g, cover.Params{
			K:         s.k,
			Rho:       s.dec.Radius(int(j)),
			UniverseN: s.g.N(),
			Member:    member,
			Metric:    s.dec.Results(),
		})
		if err != nil {
			covErrs[si] = fmt.Errorf("core: cover at scale %d: %w", j, err)
			return
		}
		cas := &coverAtScale{cov: cov, routes: make([]*covroute.Scheme, len(cov.Trees))}
		for ti, t := range cov.Trees {
			cas.routes[ti] = covroute.New(t, xrand.Hash64(p.Seed^0xc0ffee, uint64(j)<<20|uint64(ti)))
		}
		covBuilt[si] = cas
	})
	for si, err := range covErrs {
		if err != nil {
			return err
		}
		s.Report.CoverTrees += len(covBuilt[si].cov.Trees)
		s.covers[scaleList[si]] = covBuilt[si]
	}
	// Resolve home trees.
	for u := 0; u < s.g.N(); u++ {
		for i := 0; i <= s.k; i++ {
			info := &s.levels[u][i]
			if !info.dense || info.skip {
				continue
			}
			cas := s.covers[info.scale]
			home := cas.cov.Home(graph.NodeID(u))
			if home < 0 {
				return fmt.Errorf("core: node %d has no home tree at scale %d", u, info.scale)
			}
			info.treeIdx = int32(home)
		}
	}
	return nil
}

// cacheSelfLabels stores λ(T(c(u,i)), u) per sparse level: the return
// address the header carries.
func (s *Scheme) cacheSelfLabels() {
	s.selfLabels = make([][]labelT, s.g.N())
	for u := 0; u < s.g.N(); u++ {
		s.selfLabels[u] = make([]labelT, s.k+1)
		for i := 0; i <= s.k; i++ {
			info := &s.levels[u][i]
			if info.dense || info.skip {
				continue
			}
			lbl, ok := s.trees[info.center].ni.Labeled().LabelOf(graph.NodeID(u))
			if !ok {
				panic(fmt.Sprintf("core: source %d missing from tree of %d", u, info.center))
			}
			s.selfLabels[u][i] = lbl
		}
	}
}

// G returns the underlying graph.
func (s *Scheme) G() *graph.Graph { return s.g }

// K returns the trade-off parameter.
func (s *Scheme) K() int { return s.k }

// Decomposition exposes the underlying decomposition (read-only).
func (s *Scheme) Decomposition() *decomp.Decomposition { return s.dec }

// Landmarks exposes the underlying hierarchy (read-only).
func (s *Scheme) Landmarks() *landmark.Hierarchy { return s.lm }

// MaxTableBits returns the largest per-node table, the quantity of
// Theorem 1.
func (s *Scheme) MaxTableBits() bitsize.Bits { return s.acct.MaxNodeBits() }

// MeanTableBits returns the average per-node table size.
func (s *Scheme) MeanTableBits() float64 { return s.acct.MeanNodeBits() }

// StorageReport renders the per-category storage breakdown.
func (s *Scheme) StorageReport() string { return s.acct.Report() }

// TheoremBound returns the per-node table bound of Lemmas 9 and 11,
// k²·n^{3/k}·log³n bits (without the hidden constant). Theorem 1's
// headline O(k²·n^{1/k}·log³n) follows by the standard rescaling
// k → 3k; experiments report measured bits against this un-rescaled
// bound so the ratio is meaningful at small k.
func (s *Scheme) TheoremBound() float64 {
	n := float64(s.g.N())
	logn := math.Log2(math.Max(n, 2))
	return float64(s.k*s.k) * math.Pow(n, 3/float64(s.k)) * logn * logn * logn
}
