package graph

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"compactroute/internal/xrand"
)

func line(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(uint64(1000 + i))
	}
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(NodeID(i), NodeID(i+1), float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildEmpty(t *testing.T) {
	if _, err := NewBuilder().Build(); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestSingleNode(t *testing.T) {
	b := NewBuilder()
	b.AddNode(7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1 || g.M() != 0 || g.Degree(0) != 0 || !g.Connected() {
		t.Fatal("single node graph malformed")
	}
}

func TestAddNodeIdempotent(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(42)
	c := b.AddNode(42)
	if a != c {
		t.Fatal("duplicate name created second node")
	}
}

func TestNamesRoundTrip(t *testing.T) {
	g := line(t, 5)
	for u := NodeID(0); int(u) < g.N(); u++ {
		id, ok := g.Lookup(g.Name(u))
		if !ok || id != u {
			t.Fatalf("name round trip failed for %d", u)
		}
	}
	if _, ok := g.Lookup(999999); ok {
		t.Fatal("lookup of unknown name succeeded")
	}
}

func TestSelfLoopRejected(t *testing.T) {
	b := NewBuilder()
	b.AddNode(1)
	if err := b.AddEdge(0, 0, 1); err == nil {
		t.Fatal("self loop accepted")
	}
}

func TestBadWeightsRejected(t *testing.T) {
	b := NewBuilder()
	b.AddNode(1)
	b.AddNode(2)
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := b.AddEdge(0, 1, w); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
}

// TestFromSnapshotRejectsInvalidEdges: a snapshot can carry no edge
// AddEdge would refuse. A negative weight would otherwise load and
// send every Dijkstra over the graph round a cycle forever.
func TestFromSnapshotRejectsInvalidEdges(t *testing.T) {
	valid := func() *Snapshot {
		s := line(t, 3).Snapshot()
		s.Weights = append([]float64(nil), s.Weights...)
		return s
	}
	if _, err := FromSnapshot(valid()); err != nil {
		t.Fatalf("valid snapshot: %v", err)
	}
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := valid()
		// Edge 1→2 and its reverse, so the pair stays consistent.
		for i := s.Offsets[1]; i < s.Offsets[2]; i++ {
			if v := s.Targets[i]; v == 2 {
				s.Weights[i], s.Weights[s.Offsets[v]+s.RevPort[i]] = w, w
			}
		}
		if _, err := FromSnapshot(s); err == nil {
			t.Fatalf("snapshot with weight %v loaded", w)
		}
	}
	loop := &Snapshot{
		Names:   []uint64{1, 2},
		Offsets: []int32{0, 2, 2},
		Targets: []NodeID{0, 0},
		Weights: []float64{1, 1},
		RevPort: []int32{1, 0},
		M:       1,
	}
	if _, err := FromSnapshot(loop); err == nil {
		t.Fatal("snapshot with a self-loop loaded")
	}
}

func TestUnknownEndpointRejected(t *testing.T) {
	b := NewBuilder()
	b.AddNode(1)
	if err := b.AddEdge(0, 5, 1); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := line(t, 4) // 0-1-2-3
	wantDeg := []int{1, 2, 2, 1}
	for u, w := range wantDeg {
		if g.Degree(NodeID(u)) != w {
			t.Fatalf("deg(%d) = %d, want %d", u, g.Degree(NodeID(u)), w)
		}
	}
	var seen []NodeID
	g.Neighbors(1, func(e Edge) bool {
		seen = append(seen, e.To)
		return true
	})
	if len(seen) != 2 {
		t.Fatalf("node 1 neighbors = %v", seen)
	}
}

func TestNeighborsEarlyStop(t *testing.T) {
	g := line(t, 4)
	count := 0
	g.Neighbors(1, func(e Edge) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestPortsRoundTrip(t *testing.T) {
	g := line(t, 6)
	for u := NodeID(0); int(u) < g.N(); u++ {
		g.Neighbors(u, func(e Edge) bool {
			back := g.ReversePort(u, e.Port)
			e2 := g.EdgeAt(e.To, back)
			if e2.To != u || e2.Weight != e.Weight {
				t.Fatalf("reverse port broken at %d port %d", u, e.Port)
			}
			return true
		})
	}
}

func TestPortTo(t *testing.T) {
	g := line(t, 3)
	p := g.PortTo(0, 1)
	if p < 0 || g.EdgeAt(0, p).To != 1 {
		t.Fatal("PortTo(0,1) wrong")
	}
	if g.PortTo(0, 2) != -1 {
		t.Fatal("PortTo for non-adjacent should be -1")
	}
	if !g.Adjacent(1, 2) || g.Adjacent(0, 2) {
		t.Fatal("Adjacent wrong")
	}
}

func TestParallelEdgesPickLightest(t *testing.T) {
	b := NewBuilder()
	b.AddNode(1)
	b.AddNode(2)
	b.AddEdge(0, 1, 5)
	b.AddEdge(0, 1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := g.PortTo(0, 1)
	if g.EdgeAt(0, p).Weight != 2 {
		t.Fatal("PortTo did not pick lightest parallel edge")
	}
	if g.M() != 2 || g.Degree(0) != 2 {
		t.Fatal("parallel edges miscounted")
	}
}

func TestMinMaxEdgeWeight(t *testing.T) {
	g := line(t, 4) // weights 1,2,3
	if g.MinEdgeWeight() != 1 || g.MaxEdgeWeight() != 3 {
		t.Fatalf("min/max = %v/%v", g.MinEdgeWeight(), g.MaxEdgeWeight())
	}
}

func TestConnectedAndComponents(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddNode(uint64(i))
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 2 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := line(t, 5) // 0-1-2-3-4
	sg, orig, err := g.InducedSubgraph([]NodeID{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sg.N() != 3 || sg.M() != 1 {
		t.Fatalf("subgraph n=%d m=%d", sg.N(), sg.M())
	}
	// Names preserved.
	for si, u := range orig {
		if sg.Name(NodeID(si)) != g.Name(u) {
			t.Fatal("subgraph lost names")
		}
	}
}

func TestInducedSubgraphDuplicateRejected(t *testing.T) {
	g := line(t, 3)
	if _, _, err := g.InducedSubgraph([]NodeID{1, 1}); err == nil {
		t.Fatal("duplicate induced set accepted")
	}
}

// Property: on random graphs, CSR structure is internally consistent.
func TestCSRConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(30)
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode(uint64(i) * 7)
		}
		edges := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Bool(0.3) {
					if b.AddEdge(NodeID(i), NodeID(j), 1+r.Float64()) != nil {
						return false
					}
					edges++
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		if g.M() != edges {
			return false
		}
		sum := 0
		for u := NodeID(0); int(u) < n; u++ {
			sum += g.Degree(u)
			ok := true
			g.Neighbors(u, func(e Edge) bool {
				// Every edge must appear symmetrically.
				if g.PortTo(e.To, u) < 0 {
					ok = false
				}
				return ok
			})
			if !ok {
				return false
			}
		}
		return sum == 2*edges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLabeledNodes(t *testing.T) {
	b := NewBuilder()
	ny := b.AddLabeled("new-york")
	ldn := b.AddLabeled("london")
	if b.AddLabeled("new-york") != ny {
		t.Fatal("duplicate label created second node")
	}
	if err := b.AddEdge(ny, ldn, 56); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	id, ok := g.LookupLabel("london")
	if !ok || id != ldn {
		t.Fatal("label lookup failed")
	}
	if l, ok := g.Label(ny); !ok || l != "new-york" {
		t.Fatal("reverse label lookup failed")
	}
	if g.DisplayName(ny) != "new-york" {
		t.Fatal("display name wrong")
	}
	if _, ok := g.LookupLabel("paris"); ok {
		t.Fatal("phantom label resolved")
	}
	// Labeled nodes coexist with numeric names.
	num := NewBuilder()
	n1 := num.AddNode(42)
	gg, _ := num.Build()
	if gg.DisplayName(n1) != "0x2a" {
		t.Fatalf("numeric display = %s", gg.DisplayName(n1))
	}
}

func TestLabelHashingIsNameIndependent(t *testing.T) {
	// Labels hash to names; the name must not leak label ordering.
	b := NewBuilder()
	ids := make([]NodeID, 0, 50)
	for i := 0; i < 50; i++ {
		ids = append(ids, b.AddLabeled(fmt.Sprintf("host-%03d", i)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ascending := 0
	for i := 1; i < len(ids); i++ {
		if g.Name(ids[i]) > g.Name(ids[i-1]) {
			ascending++
		}
	}
	if ascending > 40 || ascending < 9 {
		t.Fatalf("hashed names look ordered: %d/49 ascending", ascending)
	}
}
