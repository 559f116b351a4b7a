package tree

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/sssp"
	"compactroute/internal/xrand"
)

// refBuilder is the map-based construction fromParents replaced: a
// parent map, a children map with a reflection sort per parent, and a
// stable reflection sort for the by-depth order. It is kept only as the
// oracle of the differential tests.
type refBuilder struct {
	g      *graph.Graph
	root   graph.NodeID
	parent map[graph.NodeID]graph.NodeID
}

func newRefBuilder(g *graph.Graph, root graph.NodeID) *refBuilder {
	return &refBuilder{g: g, root: root, parent: make(map[graph.NodeID]graph.NodeID)}
}

func (b *refBuilder) add(child, parent graph.NodeID) error {
	if child == b.root {
		return fmt.Errorf("tree: root %d cannot have a parent", child)
	}
	if !b.g.Adjacent(child, parent) {
		return fmt.Errorf("tree: %d and %d are not adjacent", child, parent)
	}
	if old, ok := b.parent[child]; ok && old != parent {
		return fmt.Errorf("tree: node %d already has parent %d", child, old)
	}
	b.parent[child] = parent
	return nil
}

func (b *refBuilder) build() (*Tree, error) {
	n := len(b.parent) + 1
	t := &Tree{
		g:          b.g,
		nodes:      make([]graph.NodeID, 0, n),
		idx:        make(map[graph.NodeID]int32, n),
		parent:     make([]int32, 0, n),
		parentPort: make([]int32, 0, n),
		childPort:  make([]int32, 0, n),
		edgeW:      make([]float64, 0, n),
		depth:      make([]float64, 0, n),
	}
	kids := make(map[graph.NodeID][]graph.NodeID, n)
	for c, p := range b.parent {
		kids[p] = append(kids[p], c)
	}
	for p := range kids {
		sort.Slice(kids[p], func(i, j int) bool { return kids[p][i] < kids[p][j] })
	}
	t.push(b.root, -1, -1, -1, 0, 0)
	for qi := 0; qi < len(t.nodes); qi++ {
		u := t.nodes[qi]
		for _, c := range kids[u] {
			port := b.g.PortTo(c, u)
			e := b.g.EdgeAt(c, port)
			t.push(c, int32(qi), int32(port), int32(b.g.ReversePort(c, port)),
				e.Weight, t.depth[qi]+e.Weight)
		}
	}
	if len(t.nodes) != n {
		return nil, fmt.Errorf("tree: %d of %d nodes unreachable from root", n-len(t.nodes), n)
	}
	t.finish()
	t.byDepth = make([]int32, n)
	for i := range t.byDepth {
		t.byDepth[i] = int32(i)
	}
	sort.SliceStable(t.byDepth, func(a, b int) bool {
		i, j := t.byDepth[a], t.byDepth[b]
		if t.depth[i] != t.depth[j] {
			return t.depth[i] < t.depth[j]
		}
		return t.g.Name(t.nodes[i]) < t.g.Name(t.nodes[j])
	})
	return t, nil
}

// refFromPaths is FromPaths over the map builder.
func refFromPaths(g *graph.Graph, src graph.NodeID, parent, targets []graph.NodeID) (*Tree, error) {
	b := newRefBuilder(g, src)
	added := map[graph.NodeID]bool{src: true}
	for _, v := range targets {
		for u := v; !added[u]; u = parent[u] {
			if parent[u] < 0 {
				return nil, fmt.Errorf("tree: target %d unreachable from root %d", v, src)
			}
			if err := b.add(u, parent[u]); err != nil {
				return nil, err
			}
			added[u] = true
		}
	}
	return b.build()
}

// refRebuild freezes t's parent relation again through the map builder.
func refRebuild(t *Tree) (*Tree, error) {
	b := newRefBuilder(t.g, t.Root())
	for i := 1; i < t.Len(); i++ {
		if err := b.add(t.Node(i), t.Node(t.Parent(i))); err != nil {
			return nil, err
		}
	}
	return b.build()
}

// sameTree compares every exported accessor of two trees over one graph.
func sameTree(a, b *Tree) error {
	if a.Graph() != b.Graph() || a.Len() != b.Len() || a.Root() != b.Root() {
		return fmt.Errorf("shape: len %d/%d root %d/%d", a.Len(), b.Len(), a.Root(), b.Root())
	}
	if a.Radius() != b.Radius() || a.MaxEdge() != b.MaxEdge() {
		return fmt.Errorf("radius %v/%v maxEdge %v/%v", a.Radius(), b.Radius(), a.MaxEdge(), b.MaxEdge())
	}
	if !slices.Equal(a.ByDepth(), b.ByDepth()) {
		return fmt.Errorf("by-depth order %v, want %v", a.ByDepth(), b.ByDepth())
	}
	for v := graph.NodeID(0); int(v) < a.Graph().N(); v++ {
		ia, oka := a.Index(v)
		ib, okb := b.Index(v)
		if ia != ib || oka != okb || a.Contains(v) != b.Contains(v) {
			return fmt.Errorf("Index(%d) = %d,%t, want %d,%t", v, ia, oka, ib, okb)
		}
	}
	for i := 0; i < a.Len(); i++ {
		if a.Node(i) != b.Node(i) || a.Parent(i) != b.Parent(i) ||
			a.ParentPort(i) != b.ParentPort(i) || a.ChildPort(i) != b.ChildPort(i) ||
			a.EdgeWeight(i) != b.EdgeWeight(i) || a.Depth(i) != b.Depth(i) ||
			a.SubtreeSize(i) != b.SubtreeSize(i) || a.Heavy(i) != b.Heavy(i) ||
			a.Pre(i) != b.Pre(i) || a.Post(i) != b.Post(i) ||
			!slices.Equal(a.Children(i), b.Children(i)) ||
			!slices.Equal(a.PathToRoot(i), b.PathToRoot(i)) {
			return fmt.Errorf("member %d differs", i)
		}
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if !slices.Equal(sa.Nodes, sb.Nodes) || !slices.Equal(sa.Parents, sb.Parents) {
		return fmt.Errorf("snapshots differ")
	}
	if err := a.Validate(); err != nil {
		return err
	}
	return b.Validate()
}

// RefRebuild and SameTree hold trees built in other packages (cover
// trees) to the same oracle from the external test package.
var (
	RefRebuild = refRebuild
	SameTree   = sameTree
)

// withParallelEdges copies g and doubles every third edge with a
// random weight, so the lightest-edge choice between a parent and a
// child is exercised.
func withParallelEdges(g *graph.Graph, seed uint64) *graph.Graph {
	rng := xrand.New(seed)
	b := graph.NewBuilder()
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		b.AddNode(g.Name(v))
	}
	e := 0
	g.ForEachEdge(func(u, v graph.NodeID, w float64) bool {
		b.AddEdge(u, v, w)
		if e%3 == 0 {
			b.AddEdge(u, v, 1+float64(rng.Intn(8)))
		}
		e++
		return true
	})
	out, err := b.Build()
	if err != nil {
		panic(err)
	}
	return out
}

// TestConstructorMatchesMapBuilder holds the array constructor to the
// map builder it replaced, through FromSPT, FromPaths and a FromSnapshot
// round trip, on random graphs with unit weights (many depth ties for
// the by-depth order), random weights, and parallel edges.
func TestConstructorMatchesMapBuilder(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, c := range []struct {
			name string
			g    *graph.Graph
		}{
			{"unit", gen.Gnp(seed, 90, 0.05, gen.Unit())},
			{"uniform", gen.Gnp(seed+100, 90, 0.05, gen.Uniform(1, 6))},
			{"parallel", withParallelEdges(gen.Gnp(seed+200, 70, 0.06, gen.Uniform(1, 4)), seed)},
		} {
			name, g := c.name, c.g
			rng := xrand.New(seed)
			for _, src := range []graph.NodeID{0, graph.NodeID(rng.Intn(g.N())), graph.NodeID(g.N() - 1)} {
				row := sssp.From(g, src)
				parent := row.Parent
				check := func(what string, got *Tree, err error, want *Tree, werr error) {
					t.Helper()
					if err != nil || werr != nil {
						t.Fatalf("%s/%d %s from %d: err %v, reference err %v", name, seed, what, src, err, werr)
					}
					if d := sameTree(got, want); d != nil {
						t.Fatalf("%s/%d %s from %d: %v", name, seed, what, src, d)
					}
				}
				spt, err := FromSPT(g, src, parent)
				ref, werr := refRebuildSPT(g, src, parent)
				check("FromSPT", spt, err, ref, werr)
				for trial := 0; trial < 4; trial++ {
					var targets []graph.NodeID
					for v := 0; v < g.N(); v++ {
						if rng.Intn(4+3*trial) == 0 {
							targets = append(targets, graph.NodeID(v))
						}
					}
					rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
					got, err := FromPaths(g, row, targets)
					want, werr := refFromPaths(g, src, parent, targets)
					check("FromPaths", got, err, want, werr)
					back, err := FromSnapshot(g, got.Snapshot())
					check("FromSnapshot", back, err, want, nil)
				}
			}
		}
	}
}

// refRebuildSPT is FromSPT over the map builder.
func refRebuildSPT(g *graph.Graph, src graph.NodeID, parent []graph.NodeID) (*Tree, error) {
	b := newRefBuilder(g, src)
	for v, p := range parent {
		if p >= 0 {
			if err := b.add(graph.NodeID(v), p); err != nil {
				return nil, err
			}
		}
	}
	return b.build()
}
