// Package bitsize provides the storage-accounting vocabulary used to
// measure routing tables against the paper's bit bounds.
//
// The SPAA'06 paper states every bound in bits (for example Theorem 1:
// O(k² n^{1/k} log³ n)-bit tables per node). To compare measured tables
// against those bounds honestly we count the information-theoretic size
// of everything a node stores, with a fixed costing model:
//
//   - a node identifier costs ⌈log₂ n⌉ bits,
//   - a port number costs ⌈log₂ deg(u)⌉ bits (at least 1),
//   - a distance/weight costs 64 bits (IEEE 754 double),
//   - small integers (ranges, levels, digit positions) cost their
//     natural width,
//   - composite objects (tree-routing labels, headers) report their own
//     measured size.
//
// An Accountant accumulates per-node totals broken down by category so
// experiment tables can show where the space goes.
package bitsize

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Bits counts the width of a binary encoding.
type Bits int64

// Log2Ceil returns ⌈log₂ n⌉ for n ≥ 1 (and 0 for n ≤ 1), the number of
// bits needed to distinguish n values ... well, to index n values it is
// max(1, ⌈log₂ n⌉); callers that need an index width should use IDBits.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// IDBits returns the number of bits needed to store one of n distinct
// identifiers (at least 1 bit).
func IDBits(n int) Bits {
	b := Log2Ceil(n)
	if b < 1 {
		b = 1
	}
	return Bits(b)
}

// DistanceBits is the accounting cost of a stored distance.
const DistanceBits Bits = 64

// NameBits is the accounting cost of a stored arbitrary node name.
// The model grants nodes polylog(n)-bit arbitrary names; we store them
// as 64-bit values.
const NameBits Bits = 64

// Accountant accumulates the bit cost of one scheme's storage, broken
// down per node and per category.
type Accountant struct {
	n        int
	perNode  []Bits
	category map[string]Bits
}

// NewAccountant returns an accountant for a scheme over n nodes.
func NewAccountant(n int) *Accountant {
	return &Accountant{
		n:        n,
		perNode:  make([]Bits, n),
		category: make(map[string]Bits),
	}
}

// Add charges b bits to node u under the given category.
func (a *Accountant) Add(u int, category string, b Bits) {
	if b < 0 {
		panic("bitsize: negative charge")
	}
	a.perNode[u] += b
	a.category[category] += b
}

// AddEach is Add for a pass that charges one category many times: for
// every i below count it charges charge(i)'s bits to charge(i)'s node,
// and it updates the category total once.
func (a *Accountant) AddEach(category string, count int, charge func(i int) (u int, b Bits)) {
	var total Bits
	for i := 0; i < count; i++ {
		u, b := charge(i)
		if b < 0 {
			panic("bitsize: negative charge")
		}
		a.perNode[u] += b
		total += b
	}
	a.category[category] += total
}

// NodeBits returns the total charged to node u.
func (a *Accountant) NodeBits(u int) Bits { return a.perNode[u] }

// TotalBits returns the total across all nodes.
func (a *Accountant) TotalBits() Bits {
	var t Bits
	for _, b := range a.perNode {
		t += b
	}
	return t
}

// MaxNodeBits returns the maximum per-node total, the quantity the
// paper's "routing tables per node" bounds refer to.
func (a *Accountant) MaxNodeBits() Bits {
	var m Bits
	for _, b := range a.perNode {
		if b > m {
			m = b
		}
	}
	return m
}

// MeanNodeBits returns the average per-node total.
func (a *Accountant) MeanNodeBits() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.TotalBits()) / float64(a.n)
}

// Categories returns category names sorted by descending cost.
func (a *Accountant) Categories() []string {
	names := make([]string, 0, len(a.category))
	for c := range a.category {
		names = append(names, c)
	}
	sort.Slice(names, func(i, j int) bool {
		if a.category[names[i]] != a.category[names[j]] {
			return a.category[names[i]] > a.category[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// CategoryBits returns the total charged under a category.
func (a *Accountant) CategoryBits(c string) Bits { return a.category[c] }

// Report renders a human-readable storage breakdown.
func (a *Accountant) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "storage: total=%s max/node=%s mean/node=%s\n",
		Human(a.TotalBits()), Human(a.MaxNodeBits()), Human(Bits(a.MeanNodeBits())))
	for _, c := range a.Categories() {
		fmt.Fprintf(&sb, "  %-28s %s\n", c, Human(a.category[c]))
	}
	return sb.String()
}

// Human renders a bit count with a binary unit suffix.
func Human(b Bits) string {
	switch {
	case b >= 1<<33:
		return fmt.Sprintf("%.2fGiB", float64(b)/(8*(1<<30)))
	case b >= 1<<23:
		return fmt.Sprintf("%.2fMiB", float64(b)/(8*(1<<20)))
	case b >= 1<<13:
		return fmt.Sprintf("%.2fKiB", float64(b)/(8*(1<<10)))
	default:
		return fmt.Sprintf("%db", int64(b))
	}
}
