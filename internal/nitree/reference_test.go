package nitree

import (
	"fmt"
	"math"

	"compactroute/internal/bitsize"
	"compactroute/internal/graph"
	"compactroute/internal/tree"
	"compactroute/internal/treeroute"
	"compactroute/internal/xrand"
)

// refScheme is the map-based Lemma 4 construction the flat layout
// replaced: a string-keyed trie over digit strings, and per member a
// child-label map (item 2) and a bucket map (item 3). It is kept only
// as the oracle of the differential test.
type refScheme struct {
	t             *tree.Tree
	lr            *treeroute.Scheme
	k, sigma, cap int
	seed          uint64
	reseedCount   int
	loadViolation bool

	names    [][]uint16     // tree index -> primary name digits
	trie     map[string]int // primary name -> tree index
	levelLen []int
	storage  []refStore
}

type refStore struct {
	childLabels map[uint16]treeroute.Label
	bucket      map[uint64]treeroute.Label
}

// digitKey packs a digit string into a map key.
func digitKey(d []uint16) string {
	b := make([]byte, 2*len(d))
	for i, v := range d {
		b[2*i] = byte(v)
		b[2*i+1] = byte(v >> 8)
	}
	return string(b)
}

func newRef(t *tree.Tree, lr *treeroute.Scheme, p Params) *refScheme {
	p.normalize(t.Len())
	sigma := int(math.Ceil(math.Pow(float64(p.UniverseN), 1/float64(p.K))))
	if sigma < 2 {
		sigma = 2
	}
	s := &refScheme{t: t, lr: lr, k: p.K, sigma: sigma}
	s.assignNames()
	theoryCap := int(math.Ceil(float64(sigma) * math.Log(math.Max(float64(p.UniverseN), 2)) * p.LoadFactor))
	if theoryCap < 1 {
		theoryCap = 1
	}
	seed := p.Seed
	bestSeed, bestLoad := seed, math.MaxInt
	for attempt := 0; attempt < p.MaxReseeds; attempt++ {
		load := s.maxPrefixLoad(seed)
		if load < bestLoad {
			bestSeed, bestLoad = seed, load
		}
		if load <= theoryCap {
			break
		}
		s.reseedCount++
		seed = xrand.Hash64(0x5eed, seed+uint64(attempt)+1)
	}
	s.seed = bestSeed
	s.cap = theoryCap
	if bestLoad > theoryCap {
		s.cap = bestLoad
		s.loadViolation = true
	}
	s.buildStorage()
	return s
}

func (s *refScheme) assignNames() {
	m := s.t.Len()
	s.names = make([][]uint16, m)
	s.trie = make(map[string]int, m)
	s.levelLen = make([]int, s.k+1)
	order := s.t.ByDepth()
	pos := 0
	levelSize := 1
	for level := 0; level <= s.k && pos < m; level++ {
		if level > 0 {
			levelSize *= s.sigma
		}
		count := levelSize
		if pos+count > m {
			count = m - pos
		}
		digits := make([]uint16, level)
		for c := 0; c < count; c++ {
			i := int(order[pos])
			name := make([]uint16, level)
			copy(name, digits)
			s.names[i] = name
			s.trie[digitKey(name)] = i
			pos++
			for d := level - 1; d >= 0; d-- {
				digits[d]++
				if int(digits[d]) < s.sigma {
					break
				}
				digits[d] = 0
			}
		}
		s.levelLen[level] = pos
	}
	for level := 1; level <= s.k; level++ {
		if s.levelLen[level] < s.levelLen[level-1] {
			s.levelLen[level] = s.levelLen[level-1]
		}
	}
}

func (s *refScheme) hashDigit(name uint64, d int) uint16 {
	return uint16(xrand.Hash64(s.seed+uint64(d)*0x9e37, name) % uint64(s.sigma))
}

func (s *refScheme) hashPrefix(name uint64, j int) []uint16 {
	p := make([]uint16, j)
	for d := 0; d < j; d++ {
		p[d] = s.hashDigit(name, d)
	}
	return p
}

func (s *refScheme) maxPrefixLoad(seed uint64) int {
	saved := s.seed
	s.seed = seed
	defer func() { s.seed = saved }()
	order := s.t.ByDepth()
	max := 0
	for j := 1; j <= s.k; j++ {
		counts := make(map[string]int)
		for pos := 0; pos < s.levelLen[j]; pos++ {
			v := s.t.Node(int(order[pos]))
			key := digitKey(s.hashPrefix(s.t.Graph().Name(v), j-1))
			counts[key]++
			if counts[key] > max {
				max = counts[key]
			}
		}
	}
	return max
}

func (s *refScheme) buildStorage() {
	m := s.t.Len()
	s.storage = make([]refStore, m)
	for i := range s.storage {
		s.storage[i].childLabels = make(map[uint16]treeroute.Label)
		s.storage[i].bucket = make(map[uint64]treeroute.Label)
	}
	for i := 0; i < m; i++ {
		name := s.names[i]
		if len(name) == 0 {
			continue
		}
		parent, ok := s.trie[digitKey(name[:len(name)-1])]
		if !ok {
			panic("nitree: reference trie not prefix-closed")
		}
		s.storage[parent].childLabels[name[len(name)-1]] = s.lr.Label(i)
	}
	g := s.t.Graph()
	order := s.t.ByDepth()
	for pos := 0; pos < m; pos++ {
		i := int(order[pos])
		ext := g.Name(s.t.Node(i))
		prefix := make([]uint16, 0, s.k)
		for j := 0; j <= s.k; j++ {
			x, ok := s.trie[digitKey(prefix)]
			if ok && len(s.storage[x].bucket) < s.cap {
				if _, dup := s.storage[x].bucket[ext]; !dup {
					s.storage[x].bucket[ext] = s.lr.Label(i)
				}
			}
			if j < s.k {
				prefix = append(prefix, s.hashDigit(ext, j))
			}
		}
	}
}

func (s *refScheme) storageBits(i int) bitsize.Bits {
	logn := bitsize.Log2Ceil(s.t.Len())
	if logn < 1 {
		logn = 1
	}
	b := bitsize.Bits(logn * logn)
	b += s.lr.LocalBits(i)
	for _, l := range s.storage[i].childLabels {
		b += 8 + l.Bits()
	}
	for range s.storage[i].bucket {
		b += bitsize.NameBits
	}
	for _, l := range s.storage[i].bucket {
		b += l.Bits()
	}
	return b
}

func (s *refScheme) minBound(ext uint64) int {
	prefix := make([]uint16, 0, s.k)
	for round := 1; round <= s.k; round++ {
		x, ok := s.trie[digitKey(prefix)]
		if !ok {
			return 0
		}
		if _, hit := s.storage[x].bucket[ext]; hit {
			return round
		}
		prefix = append(prefix, s.hashDigit(ext, round-1))
	}
	return 0
}

// runSearch is the map-based j-bounded search: the same walk as
// Scheme.Step, driven to completion from the root.
func (s *refScheme) runSearch(ext uint64, bound int) (bool, []graph.NodeID, error) {
	if bound < 1 {
		bound = 1
	}
	if bound > s.k {
		bound = s.k
	}
	g := s.t.Graph()
	root := s.t.Root()
	rootLabel := s.lr.Label(0)
	cur := root
	path := []graph.NodeID{cur}
	leg := rootLabel
	ph := phaseToTrieNode
	round := 0
	for steps := 0; steps <= 16*s.t.Len()*(s.k+1); steps++ {
		// The reference finds every hop's record through the member
		// map, independently of the position Scheme.Step carries.
		i, _ := s.t.Index(cur)
		arrived, port, _, err := s.lr.Step(cur, i, leg)
		if err != nil {
			return false, path, err
		}
		if !arrived {
			cur = g.EdgeAt(cur, port).To
			path = append(path, cur)
			continue
		}
		switch ph {
		case phaseToTarget:
			return true, path, nil
		case phaseToRoot:
			return false, path, nil
		}
		st := &s.storage[i]
		round++
		if lbl, hit := st.bucket[ext]; hit {
			if g.Name(cur) == ext {
				return true, path, nil
			}
			ph, leg = phaseToTarget, lbl
			continue
		}
		var next treeroute.Label
		hasChild := false
		if round < bound {
			next, hasChild = st.childLabels[s.hashDigit(ext, round-1)]
		}
		if !hasChild {
			if len(s.names[i]) == 0 {
				return false, path, nil
			}
			ph, leg = phaseToRoot, rootLabel
			continue
		}
		ph, leg = phaseToTrieNode, next
	}
	return false, path, fmt.Errorf("nitree: reference search not terminating")
}

// refMaxPrefixLoad is maxPrefixLoad as a map count over digit strings:
// every level j = 1..k, every member of V_j keyed by its (j−1)-digit
// hash prefix, with no packing, no dense array and no level skipped.
func refMaxPrefixLoad(s *Scheme, seed uint64, exts []uint64) int {
	load := 0
	for j := 1; j <= s.k; j++ {
		counts := make(map[string]int)
		for _, ext := range exts[:s.levelLen[j]] {
			key := make([]uint16, j-1)
			for d := range key {
				key[d] = digit(seed, s.sigma, ext, d)
			}
			counts[digitKey(key)]++
			load = max(load, counts[digitKey(key)])
		}
	}
	return load
}
