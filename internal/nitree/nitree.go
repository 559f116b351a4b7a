// Package nitree implements Lemma 4 of the paper: name-independent
// error-reporting tree routing with j-bounded searches.
//
// Given a weighted tree T with root r and a parameter k, members are
// sorted by tree distance from the root (ties by name) and assigned
// *primary names*: digit strings over Σ = {0..σ-1}, σ = ⌈n^{1/k}⌉ —
// the root gets the empty word, the next σ nodes one digit, the next
// σ² two digits, and so on. A Θ(log n)-wise-independent-style hash
// maps every external node name to k digits. A member named
// (x₁..x_j) stores
//
//  1. its Lemma 5 labeled-routing record µ(T,u),
//  2. the labels λ(T,·) of every member named (x₁..x_j,y), y ∈ Σ,
//  3. labels of the ⌈σ·ln n⌉ members closest to the root whose hash
//     starts with (x₁..x_j) — its "hash bucket".
//
// A j-bounded search for an external name walks the trie along the
// name's hash digits, checking each visited trie node's bucket. If the
// destination's primary name has i ≤ j digits the search finds it with
// stretch 2i−1 (property (a)); otherwise it reports failure back to
// the root at cost ≤ (2j−2)·max{d(r,v) : v ∈ V_{j−1}} (property (b)).
//
// The hash's prefix-load requirement (≤ σ·ln n members of V_j per
// (j−1)-digit prefix) is *verified at construction*; if a seed
// violates it we re-seed, and as a last resort the bucket capacity is
// raised to the observed maximum so that delivery is guaranteed
// deterministically, with the violation recorded for the experiment
// tables (DESIGN.md substitution #2).
//
// Items 2 and 3 are charged as the paper stores them (StorageBits), but
// held in memory without a map or a per-member pointer. Primary names
// are handed out in lexicographic order level by level, so the member
// at by-depth position p on level j is named by the j base-σ digits of
// p − |V_{j−1}|, and its child y sits at position |V_j| + (p −
// |V_{j−1}|)·σ + y: item 2 is arithmetic over by-depth positions. Item 3
// is one CSR array per tree, each bucket sorted by external name.
package nitree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"compactroute/internal/bitsize"
	"compactroute/internal/graph"
	"compactroute/internal/tree"
	"compactroute/internal/treeroute"
	"compactroute/internal/xrand"
)

// Params configures a Lemma 4 structure.
type Params struct {
	// K is the trade-off parameter k ≥ 1.
	K int
	// UniverseN is the n in σ = ⌈n^{1/k}⌉ and in the log n factors;
	// the enclosing scheme passes the graph size (the tree may be
	// smaller). If zero, the tree size is used.
	UniverseN int
	// LoadFactor scales the bucket capacity ⌈σ·ln n⌉. Default 1.
	LoadFactor float64
	// Seed drives the name hash.
	Seed uint64
	// MaxReseeds bounds the attempts to find a hash seed satisfying
	// the prefix-load property. Default 16.
	MaxReseeds int
}

func (p *Params) normalize(treeLen int) {
	if p.K < 1 {
		p.K = 1
	}
	if p.UniverseN < treeLen {
		p.UniverseN = treeLen
	}
	if p.LoadFactor <= 0 {
		p.LoadFactor = 1
	}
	if p.MaxReseeds <= 0 {
		p.MaxReseeds = 16
	}
}

// Scheme is the Lemma 4 structure for one tree.
type Scheme struct {
	t     *tree.Tree
	lr    *treeroute.Scheme
	k     int
	sigma int
	cap   int // bucket capacity actually used
	seed  uint64
	// hashBits is the hash function's Θ(log² m) share, the same for
	// every member of the tree.
	hashBits bitsize.Bits
	// ReseedCount and LoadViolation record how the hash verification
	// went (for experiment tables).
	ReseedCount   int
	LoadViolation bool

	levelLen []int   // |V_j| for j = 0..k (cumulative)
	posOf    []int32 // tree index -> by-depth position
	// Item 3 for every trie node, as one CSR over by-depth positions:
	// position p's bucket is entries bucketOff[p]..bucketOff[p+1],
	// sorted by external name.
	bucketOff    []int32
	bucketName   []uint64
	bucketMember []int32 // tree index of each entry
	// minBound[i] is the smallest search bound that finds member i,
	// recorded while the buckets fill.
	minBound []uint8
}

// New builds the Lemma 4 structures over t.
func New(t *tree.Tree, p Params) (*Scheme, error) {
	m := t.Len()
	p.normalize(m)
	if p.K > 60 {
		return nil, fmt.Errorf("nitree: k=%d too large", p.K)
	}
	sigma := int(math.Ceil(math.Pow(float64(p.UniverseN), 1/float64(p.K))))
	if sigma < 2 {
		sigma = 2
	}
	if sigma > 1<<16 {
		return nil, fmt.Errorf("nitree: alphabet %d too large", sigma)
	}
	logm := max(bitsize.Log2Ceil(m), 1)
	s := &Scheme{
		t:        t,
		lr:       treeroute.New(t),
		k:        p.K,
		sigma:    sigma,
		hashBits: bitsize.Bits(logm * logm),
	}
	s.assignNames()
	order := t.ByDepth()
	exts := make([]uint64, m) // external name by by-depth position
	for pos, i := range order {
		exts[pos] = t.Graph().Name(t.Node(int(i)))
	}
	theoryCap := int(math.Ceil(float64(sigma) * math.Log(math.Max(float64(p.UniverseN), 2)) * p.LoadFactor))
	if theoryCap < 1 {
		theoryCap = 1
	}
	// Find a hash seed satisfying the prefix-load property.
	seed := p.Seed
	bestSeed, bestLoad := seed, math.MaxInt
	for attempt := 0; attempt < p.MaxReseeds; attempt++ {
		load := s.maxPrefixLoad(seed, exts)
		if load < bestLoad {
			bestSeed, bestLoad = seed, load
		}
		if load <= theoryCap {
			break
		}
		s.ReseedCount++
		seed = xrand.Hash64(0x5eed, seed+uint64(attempt)+1)
	}
	s.seed = bestSeed
	s.cap = theoryCap
	if bestLoad > theoryCap {
		// Deterministic-correctness fallback: widen buckets so every
		// member is still guaranteed discoverable.
		s.cap = bestLoad
		s.LoadViolation = true
	}
	s.buildStorage(exts)
	return s, nil
}

// assignNames gives members primary names in by-depth order: the root
// the empty word, then σ one-digit names, σ² two-digit names, … in
// lexicographic order. A name is implicit in its member's by-depth
// position, so only the level sizes and the positions are kept.
func (s *Scheme) assignNames() {
	m := s.t.Len()
	s.levelLen = make([]int, s.k+1)
	pos := 0
	levelSize := 1 // σ^level
	for level := 0; level <= s.k && pos < m; level++ {
		if level > 0 {
			levelSize *= s.sigma
		}
		pos += min(levelSize, m-pos)
		s.levelLen[level] = pos
	}
	if pos < m {
		// Unreachable: σ^k ≥ UniverseN ≥ m guarantees enough names.
		panic(fmt.Sprintf("nitree: ran out of names at %d of %d", pos, m))
	}
	// levelLen[j] is cumulative |V_j|; levels past the last assigned
	// one keep the final count.
	for level := 1; level <= s.k; level++ {
		if s.levelLen[level] < s.levelLen[level-1] {
			s.levelLen[level] = s.levelLen[level-1]
		}
	}
	s.posOf = make([]int32, m)
	for pos, i := range s.t.ByDepth() {
		s.posOf[i] = int32(pos)
	}
}

// levelStart returns |V_{j−1}|, the first by-depth position on level j.
func (s *Scheme) levelStart(j int) int {
	if j == 0 {
		return 0
	}
	return s.levelLen[j-1]
}

// levelOf returns the level (name length) of by-depth position p.
func (s *Scheme) levelOf(p int) int {
	j := 0
	for p >= s.levelLen[j] {
		j++
	}
	return j
}

// trieNode returns the by-depth position of the level-j member whose
// name, read as a base-σ number, is v — if that name is assigned.
func (s *Scheme) trieNode(j, v int) (int, bool) {
	x := s.levelStart(j) + v
	return x, x < s.levelLen[j]
}

// children returns the by-depth positions [lo, hi) of position p's
// trie children: child y, named p's name followed by y, is at lo+y.
func (s *Scheme) children(p int) (lo, hi int) {
	j := s.levelOf(p)
	if j == s.k {
		return 0, 0
	}
	lo = s.levelLen[j] + (p-s.levelStart(j))*s.sigma
	return lo, max(lo, min(lo+s.sigma, s.levelLen[j+1]))
}

// hashDigit returns digit d of the k-digit hash of an external name.
func (s *Scheme) hashDigit(name uint64, d int) uint16 {
	return digit(s.seed, s.sigma, name, d)
}

// digit is hashDigit under an explicit seed, for the seed search.
func digit(seed uint64, sigma int, name uint64, d int) uint16 {
	return uint16(xrand.Hash64(seed+uint64(d)*0x9e37, name) % uint64(sigma))
}

// maxPrefixLoad computes, under the given seed, the largest number of
// members of V_j sharing a (j-1)-digit hash prefix, over all j. Each
// member's prefix is one packed base-σ integer, extended by a digit
// per level (σ^{k−1} fits 64 bits for any n below 2^40).
func (s *Scheme) maxPrefixLoad(seed uint64, exts []uint64) int {
	prefix := make([]uint64, len(exts))
	counts := make(map[uint64]int)
	max := 0
	for j := 1; j <= s.k; j++ {
		clear(counts)
		for _, key := range prefix[:s.levelLen[j]] {
			counts[key]++
			if counts[key] > max {
				max = counts[key]
			}
		}
		if j < s.k {
			for pos, ext := range exts {
				prefix[pos] = prefix[pos]*uint64(s.sigma) + uint64(digit(seed, s.sigma, ext, j-1))
			}
		}
	}
	return max
}

// buildStorage fills item 3: members walk closest-to-root first, each
// joining the bucket of the trie node matching every hash prefix of
// its external name until that bucket is full. It records each
// member's smallest search bound on the way: one more than the first
// prefix length whose bucket took it (buckets never drop an entry, and
// the trie is prefix-closed, so no shorter search finds it). Item 2
// needs no storage; see children.
func (s *Scheme) buildStorage(exts []uint64) {
	m := len(exts)
	order := s.t.ByDepth()
	s.minBound = make([]uint8, m)
	count := make([]int32, m)
	type entry struct{ at, pos int32 } // bucket position, member position
	accepted := make([]entry, 0, m)
	for pos, ext := range exts {
		i := order[pos]
		v := 0
		for j := 0; j <= s.k; j++ {
			x, ok := s.trieNode(j, v)
			if !ok {
				break // prefix-closed: no deeper node either
			}
			if int(count[x]) < s.cap {
				count[x]++
				accepted = append(accepted, entry{int32(x), int32(pos)})
				if j < s.k && s.minBound[i] == 0 {
					s.minBound[i] = uint8(j + 1)
				}
			}
			if j < s.k {
				v = v*s.sigma + int(s.hashDigit(ext, j))
			}
		}
	}
	s.bucketOff = make([]int32, m+1)
	for x := 0; x < m; x++ {
		s.bucketOff[x+1] = s.bucketOff[x] + count[x]
	}
	type slot struct {
		name   uint64
		member int32
	}
	slots := make([]slot, len(accepted))
	next := count // reused as each bucket's fill cursor
	copy(next, s.bucketOff[:m])
	for _, e := range accepted {
		slots[next[e.at]] = slot{exts[e.pos], order[e.pos]}
		next[e.at]++
	}
	for x := 0; x < m; x++ {
		slices.SortFunc(slots[s.bucketOff[x]:s.bucketOff[x+1]], func(a, b slot) int {
			return cmp.Compare(a.name, b.name)
		})
	}
	s.bucketName = make([]uint64, len(slots))
	s.bucketMember = make([]int32, len(slots))
	for e, sl := range slots {
		s.bucketName[e], s.bucketMember[e] = sl.name, sl.member
	}
}

// bucketFind looks ext up in position p's bucket and returns its entry.
func (s *Scheme) bucketFind(p int, ext uint64) (int, bool) {
	lo, hi := s.bucketOff[p], s.bucketOff[p+1]
	e, ok := slices.BinarySearch(s.bucketName[lo:hi], ext)
	return int(lo) + e, ok
}

// Tree returns the underlying tree.
func (s *Scheme) Tree() *tree.Tree { return s.t }

// Labeled returns the embedded Lemma 5 scheme.
func (s *Scheme) Labeled() *treeroute.Scheme { return s.lr }

// Sigma returns the alphabet size σ = ⌈n^{1/k}⌉.
func (s *Scheme) Sigma() int { return s.sigma }

// BucketCap returns the bucket capacity in effect.
func (s *Scheme) BucketCap() int { return s.cap }

// PrimaryName returns the digit string of member i (root: empty): the
// base-σ digits of its offset within its level.
func (s *Scheme) PrimaryName(i int) []uint16 {
	p := int(s.posOf[i])
	j := s.levelOf(p)
	name := make([]uint16, j)
	for v, d := p-s.levelStart(j), j-1; d >= 0; d-- {
		name[d] = uint16(v % s.sigma)
		v /= s.sigma
	}
	return name
}

// LevelSize returns |V_j|: the number of members with ≤ j digits.
func (s *Scheme) LevelSize(j int) int {
	if j > s.k {
		j = s.k
	}
	if j < 0 {
		return 0
	}
	return s.levelLen[j]
}

// StorageBits returns the accounting size of member i's tables: the
// hash function share, µ(T,u), child labels, and the hash bucket.
func (s *Scheme) StorageBits(i int) bitsize.Bits {
	b := s.hashBits + s.lr.LocalBits(i)
	order := s.t.ByDepth()
	p := int(s.posOf[i])
	lo, hi := s.children(p)
	for c := lo; c < hi; c++ {
		b += 8 + s.lr.Label(int(order[c])).Bits() // digit + label
	}
	for e := s.bucketOff[p]; e < s.bucketOff[p+1]; e++ {
		b += bitsize.NameBits + s.lr.Label(int(s.bucketMember[e])).Bits()
	}
	return b
}

// MinBoundOf returns the smallest j such that a j-bounded search finds
// member i, as recorded when the buckets were filled. This is the
// quantity b(u,i) of §3.1 is computed from.
func (s *Scheme) MinBoundOf(i int) int { return int(s.minBound[i]) }

// --- j-bounded search as a distributed step machine ---

// Phase of a search in progress.
type phase uint16

const (
	phaseToTrieNode phase = iota // heading to the next trie node
	phaseToTarget                // destination label acquired
	phaseToRoot                  // negative: returning to the root
)

// Search is the routing header of one j-bounded search. It holds only
// information a real header would: the target's external name, the
// bound, the current leg's label, and the round counter. It also keeps
// the walk's position, the tree index of the member it is at, which is
// not charged (see treeroute.Scheme.Step).
type Search struct {
	Target uint64
	Bound  int
	round  int
	phase  phase
	at     int32
	leg    treeroute.Label
	// Outcome flags, set when the search terminates.
	Found    bool
	Negative bool
}

// HeaderBits returns the accounting size of the search header.
func (h *Search) HeaderBits() bitsize.Bits {
	return bitsize.NameBits + 16 + h.leg.Bits()
}

// NewSearch prepares a j-bounded search for ext starting at the root,
// which is tree index 0. The first leg trivially targets the root
// itself.
func (s *Scheme) NewSearch(ext uint64, bound int) *Search {
	if bound < 1 {
		bound = 1
	}
	if bound > s.k {
		bound = s.k
	}
	return &Search{Target: ext, Bound: bound, round: 0, phase: phaseToTrieNode, leg: s.lr.Label(0)}
}

// Action tells the driving engine what a step decided.
type Action uint16

const (
	// Forward: cross the returned port.
	Forward Action = iota
	// Delivered: the current node is the destination.
	Delivered
	// ReportedNotFound: the search ended back at the root with a
	// negative result.
	ReportedNotFound
)

// Step advances the search at graph node x. It consults only x's local
// tables and the header. The search carries its position from hop to
// hop, so x's tables are read by tree index; x must be the member the
// previous step forwarded to (the root on the first step).
func (s *Scheme) Step(x graph.NodeID, h *Search) (Action, int, error) {
	arrived, port, next, err := s.lr.Step(x, int(h.at), h.leg)
	if err != nil {
		return 0, 0, fmt.Errorf("nitree: %w", err)
	}
	if !arrived {
		h.at = int32(next)
		return Forward, port, nil
	}
	// We are at the end of a leg.
	switch h.phase {
	case phaseToTarget:
		h.Found = true
		return Delivered, 0, nil
	case phaseToRoot:
		h.Negative = true
		return ReportedNotFound, 0, nil
	}
	// At a trie node: make the local decision.
	p := int(s.posOf[h.at])
	h.round++
	if e, hit := s.bucketFind(p, h.Target); hit {
		if s.t.Graph().Name(x) == h.Target {
			h.Found = true
			return Delivered, 0, nil
		}
		h.phase = phaseToTarget
		h.leg = s.lr.Label(int(s.bucketMember[e]))
		return s.Step(x, h)
	}
	negative := func() (Action, int, error) {
		if p == 0 { // already at the root
			h.Negative = true
			return ReportedNotFound, 0, nil
		}
		h.phase = phaseToRoot
		h.leg = s.lr.Label(0)
		return s.Step(x, h)
	}
	if h.round >= h.Bound {
		return negative()
	}
	lo, hi := s.children(p)
	c := lo + int(s.hashDigit(h.Target, h.round-1))
	if c >= hi {
		// The trie has no deeper node on this hash path, so the name
		// cannot exist in the tree: report the error.
		return negative()
	}
	h.phase = phaseToTrieNode
	h.leg = s.lr.Label(int(s.t.ByDepth()[c]))
	return s.Step(x, h)
}

// RunSearch drives a full search from the root for tests and
// construction-time probing. It returns the traversed node path.
func (s *Scheme) RunSearch(ext uint64, bound int) (found bool, path []graph.NodeID, err error) {
	h := s.NewSearch(ext, bound)
	g := s.t.Graph()
	cur := s.t.Root()
	path = []graph.NodeID{cur}
	for steps := 0; ; steps++ {
		if steps > 16*s.t.Len()*(s.k+1) {
			return false, path, fmt.Errorf("nitree: search not terminating")
		}
		act, port, err := s.Step(cur, h)
		if err != nil {
			return false, path, err
		}
		switch act {
		case Delivered:
			return true, path, nil
		case ReportedNotFound:
			return false, path, nil
		case Forward:
			cur = g.EdgeAt(cur, port).To
			path = append(path, cur)
		}
	}
}
