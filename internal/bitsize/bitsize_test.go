package bitsize

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLog2Ceil(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := Log2Ceil(c.n); got != c.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestLog2CeilProperty(t *testing.T) {
	f := func(x uint16) bool {
		n := int(x)
		if n < 2 {
			return true
		}
		b := Log2Ceil(n)
		// 2^(b-1) < n <= 2^b
		return (1<<uint(b)) >= n && (1<<uint(b-1)) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLog2CeilMatchesFloatForm holds the integer Log2Ceil to the
// math.Log2 form it replaced, which is exact below 2^49: every n up to
// 2^20, and each power of two and its neighbours up to 2^31.
func TestLog2CeilMatchesFloatForm(t *testing.T) {
	float := func(n int) int {
		if n <= 1 {
			return 0
		}
		return int(math.Ceil(math.Log2(float64(n))))
	}
	ns := make([]int, 0, 1<<20+3*32)
	for n := -1; n <= 1<<20; n++ {
		ns = append(ns, n)
	}
	for j := 0; j <= 31; j++ {
		ns = append(ns, 1<<j-1, 1<<j, 1<<j+1)
	}
	for _, n := range ns {
		if got, want := Log2Ceil(n), float(n); got != want {
			t.Fatalf("Log2Ceil(%d) = %d, float form %d", n, got, want)
		}
	}
}

func TestIDBitsMinimumOne(t *testing.T) {
	if IDBits(0) != 1 || IDBits(1) != 1 || IDBits(2) != 1 {
		t.Fatal("IDBits must be at least 1")
	}
	if IDBits(1024) != 10 {
		t.Fatalf("IDBits(1024) = %d", IDBits(1024))
	}
}

func TestAccountantTotals(t *testing.T) {
	a := NewAccountant(3)
	a.Add(0, "labels", 100)
	a.Add(1, "labels", 50)
	a.Add(1, "trie", 20)
	a.Add(2, "trie", 5)

	if a.TotalBits() != 175 {
		t.Fatalf("TotalBits = %d", a.TotalBits())
	}
	if a.MaxNodeBits() != 100 {
		t.Fatalf("MaxNodeBits = %d", a.MaxNodeBits())
	}
	if a.NodeBits(1) != 70 {
		t.Fatalf("NodeBits(1) = %d", a.NodeBits(1))
	}
	if got := a.MeanNodeBits(); got != 175.0/3 {
		t.Fatalf("MeanNodeBits = %v", got)
	}
	if a.CategoryBits("labels") != 150 || a.CategoryBits("trie") != 25 {
		t.Fatal("category totals wrong")
	}
}

// TestAddEachMatchesAdd charges the same members through AddEach and
// through one Add each: node and category totals must agree.
func TestAddEachMatchesAdd(t *testing.T) {
	nodes := []int{2, 0, 2, 1, 3}
	bits := []Bits{7, 0, 11, 64, 3}
	each, one := NewAccountant(4), NewAccountant(4)
	each.Add(1, "trie", 5)
	one.Add(1, "trie", 5)
	each.AddEach("trie", len(nodes), func(i int) (int, Bits) { return nodes[i], bits[i] })
	for i, u := range nodes {
		one.Add(u, "trie", bits[i])
	}
	for u := 0; u < 4; u++ {
		if each.NodeBits(u) != one.NodeBits(u) {
			t.Fatalf("node %d: AddEach %d, Add %d", u, each.NodeBits(u), one.NodeBits(u))
		}
	}
	if each.CategoryBits("trie") != one.CategoryBits("trie") {
		t.Fatalf("category: AddEach %d, Add %d", each.CategoryBits("trie"), one.CategoryBits("trie"))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	each.AddEach("trie", 1, func(int) (int, Bits) { return 0, -1 })
}

func TestAccountantCategoriesSorted(t *testing.T) {
	a := NewAccountant(1)
	a.Add(0, "small", 1)
	a.Add(0, "big", 1000)
	a.Add(0, "mid", 10)
	got := a.Categories()
	want := []string{"big", "mid", "small"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Categories() = %v, want %v", got, want)
		}
	}
}

func TestAccountantNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	NewAccountant(1).Add(0, "x", -1)
}

func TestReportContainsCategories(t *testing.T) {
	a := NewAccountant(2)
	a.Add(0, "cover-trees", 12345)
	r := a.Report()
	if !strings.Contains(r, "cover-trees") {
		t.Fatalf("report missing category: %q", r)
	}
}

func TestHumanUnits(t *testing.T) {
	if Human(100) != "100b" {
		t.Fatalf("Human(100) = %s", Human(100))
	}
	if !strings.HasSuffix(Human(1<<20), "KiB") {
		t.Fatalf("Human(1MiBit) = %s", Human(1<<20))
	}
	if !strings.HasSuffix(Human(1<<30), "MiB") {
		t.Fatalf("Human(2^30) = %s", Human(1<<30))
	}
	if !strings.HasSuffix(Human(1<<34), "GiB") {
		t.Fatalf("Human(2^34) = %s", Human(1<<34))
	}
}

func TestEmptyAccountant(t *testing.T) {
	a := NewAccountant(0)
	if a.TotalBits() != 0 || a.MaxNodeBits() != 0 || a.MeanNodeBits() != 0 {
		t.Fatal("empty accountant not zero")
	}
}
