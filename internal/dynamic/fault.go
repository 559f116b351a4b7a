package dynamic

import (
	"fmt"
	"sort"

	"compactroute/internal/graph"
	"compactroute/internal/xrand"
)

// FaultSet is the transient down/up overlay projected from a mutation
// stream: which nodes and endpoint pairs are currently failed. It is
// the serving-side companion of the OpFail*/OpRecover* events — the
// permanent topology (Replay, rebuilds) never reflects failures, so a
// layer that wants to route around them keeps a FaultSet alongside the
// graph and consults it per element. It is the one place the
// projection rule and the blocking rule live: the Log's fault shadow,
// the repair layer (serve.Repairer) and the trace generators all hold
// one.
//
// A FaultSet is not safe for concurrent use; holders synchronize
// externally (the Repairer keeps its own under its lock).
type FaultSet struct {
	nodes map[uint64]bool
	edges map[[2]uint64]bool
}

// NewFaultSet returns an empty (quiescent) overlay.
func NewFaultSet() *FaultSet {
	return &FaultSet{nodes: make(map[uint64]bool), edges: make(map[[2]uint64]bool)}
}

// Observe projects one mutation onto the overlay and reports whether
// it changed fault state. Transient events set or clear their element;
// a permanent RemoveEdge clears the pair's down flag (the element is
// gone, not down — a later re-add starts life up). Observe is lenient
// by design: it is a projection of an already-validated log, so a
// redundant fail or recover is a no-op, never an error.
func (f *FaultSet) Observe(m Mutation) bool {
	switch m.Op {
	case OpFailEdge:
		f.edges[pairKey(m.U, m.V)] = true
		return true
	case OpRecoverEdge:
		delete(f.edges, pairKey(m.U, m.V))
		return true
	case OpFailNode:
		f.nodes[m.Name] = true
		return true
	case OpRecoverNode:
		delete(f.nodes, m.Name)
		return true
	case OpRemoveEdge:
		k := pairKey(m.U, m.V)
		if f.edges[k] {
			delete(f.edges, k)
			return true
		}
	}
	return false
}

// NodeDown reports whether the node is failed.
func (f *FaultSet) NodeDown(name uint64) bool { return f.nodes[name] }

// EdgeDown reports whether the unordered pair is unusable: the pair
// itself is failed, or either endpoint node is — a down node takes
// every edge at it down with it.
func (f *FaultSet) EdgeDown(u, v uint64) bool {
	return f.edges[pairKey(u, v)] || f.nodes[u] || f.nodes[v]
}

// Blocks reports whether a walk along path (node names, in order)
// crosses a down element: a down node anywhere on it, or a down pair
// between consecutive nodes.
func (f *FaultSet) Blocks(path []uint64) bool {
	for i, n := range path {
		if f.nodes[n] || i > 0 && f.edges[pairKey(path[i-1], n)] {
			return true
		}
	}
	return false
}

// Quiescent reports that nothing is down.
func (f *FaultSet) Quiescent() bool { return len(f.nodes) == 0 && len(f.edges) == 0 }

// DownNodes returns the failed node names, sorted.
func (f *FaultSet) DownNodes() []uint64 {
	out := make([]uint64, 0, len(f.nodes))
	for n := range f.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DownEdges returns the failed endpoint pairs, sorted.
func (f *FaultSet) DownEdges() [][2]uint64 {
	out := make([][2]uint64, 0, len(f.edges))
	for k := range f.edges {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// RecoveryMutations returns the deterministic event sequence that
// brings the overlay back to quiescence: every down pair recovered in
// sorted order, then every down node. Appending it to the trace that
// produced this overlay yields a quiescent trace — the shape the
// cold-build identity property is stated over.
func (f *FaultSet) RecoveryMutations() []Mutation {
	out := make([]Mutation, 0, len(f.edges)+len(f.nodes))
	for _, k := range f.DownEdges() {
		out = append(out, Mutation{Op: OpRecoverEdge, U: k[0], V: k[1]})
	}
	for _, n := range f.DownNodes() {
		out = append(out, Mutation{Op: OpRecoverNode, Name: n})
	}
	return out
}

// liveConnected reports whether the up subgraph — nodes not failed,
// edges whose pair and endpoints are not failed — is connected (every
// up node reaches every other over up edges). A graph with no up node
// is not live.
func liveConnected(g *graph.Graph, fs *FaultSet) bool {
	n := g.N()
	up := 0
	start := graph.NodeID(-1)
	for u := graph.NodeID(0); int(u) < n; u++ {
		if !fs.NodeDown(g.Name(u)) {
			up++
			if start < 0 {
				start = u
			}
		}
	}
	if up == 0 {
		return false
	}
	visited := make([]bool, n)
	visited[start] = true
	queue := []graph.NodeID{start}
	reached := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.Neighbors(u, func(e graph.Edge) bool {
			if !visited[e.To] && !fs.EdgeDown(g.Name(u), g.Name(e.To)) {
				visited[e.To] = true
				reached++
				queue = append(queue, e.To)
			}
			return true
		})
	}
	return reached == up
}

// TraceProfile weighs the op mix of GenerateFaultTrace. Weights are
// relative (only ratios matter); a zero weight disables the op. The
// zero value is invalid — start from DefaultTraceProfile.
type TraceProfile struct {
	// The permanent churn ops, as in GenerateTrace.
	SetWeight, AddEdge, RemoveEdge, AddNode int
	// The transient events. Recover picks a random outstanding fault
	// (edge or node) and brings it back; with FailEdge/FailNode at zero
	// it never fires.
	FailEdge, FailNode, Recover int
}

// DefaultTraceProfile mirrors GenerateTrace's churn mix and adds a
// moderate failure regime: transient events are ~30% of the trace,
// recoveries roughly pacing failures so outages are windows, not a
// monotone slide into darkness.
func DefaultTraceProfile() TraceProfile {
	return TraceProfile{
		SetWeight:  30,
		AddEdge:    18,
		RemoveEdge: 10,
		AddNode:    10,
		FailEdge:   12,
		FailNode:   4,
		Recover:    16,
	}
}

func (p TraceProfile) total() int {
	return p.SetWeight + p.AddEdge + p.RemoveEdge + p.AddNode + p.FailEdge + p.FailNode + p.Recover
}

// GenerateFaultTrace produces a deterministic, seedable mutation trace
// of length k over base, mixing permanent churn with transient failure
// and recovery events per the profile. Safety contract (checked per
// prefix by the tests): every mutation replays, and the LIVE subgraph
// — up nodes over up edges — stays connected after every event, so a
// scheme routing around the fault overlay always has a path to offer.
// The permanent-op mix replays its own mutations as it goes, exactly
// like GenerateTrace; failures additionally update a FaultSet, which
// is also returned so callers can quiesce the tail
// (FaultSet.RecoveryMutations) or seed a serving-side overlay.
func GenerateFaultTrace(base *graph.Graph, k int, seed uint64, p TraceProfile) ([]Mutation, *FaultSet, error) {
	total := p.total()
	if total <= 0 {
		return nil, nil, fmt.Errorf("dynamic: GenerateFaultTrace: profile has no positive weight")
	}
	if total == p.Recover {
		// Recover-only would spin forever with nothing to recover.
		return nil, nil, fmt.Errorf("dynamic: GenerateFaultTrace: profile needs a positive non-Recover weight")
	}
	return generate(base, k, seed^0xfa17_c0de_d00d_f00d, 0xFA17_0000_0000_0000+seed<<16, p)
}

// generate is the one trace generator behind GenerateTrace and
// GenerateFaultTrace. Each entry point brings its own RNG seed and
// name base for joined nodes, so their traces never collide.
func generate(base *graph.Graph, k int, rngSeed, nextName uint64, p TraceProfile) ([]Mutation, *FaultSet, error) {
	total := p.total()
	rng := xrand.New(rngSeed)
	cur := base
	fs := NewFaultSet()
	wlo, whi := base.MinEdgeWeight(), base.MaxEdgeWeight()
	if !(whi > wlo) {
		whi = wlo + 1
	}
	weight := func() float64 { return wlo + rng.Float64()*(whi-wlo) }

	var muts []Mutation
	step := func(ms ...Mutation) error {
		g, err := Replay(cur, ms)
		if err != nil {
			return err
		}
		cur = g
		for _, m := range ms {
			fs.Observe(m)
		}
		muts = append(muts, ms...)
		return nil
	}
	randomEdge := func() (u, v graph.NodeID) {
		for {
			x := graph.NodeID(rng.Intn(cur.N()))
			deg := cur.Degree(x)
			if deg == 0 {
				continue
			}
			e := cur.EdgeAt(x, rng.Intn(deg))
			return x, e.To
		}
	}
	// survives reports whether the live subgraph stays connected after
	// hypothetically applying delta to the fault overlay on graph g.
	survives := func(g *graph.Graph, delta Mutation) bool {
		fs.Observe(delta)
		ok := liveConnected(g, fs)
		// Undo: fail<->recover and removeedge's clear are inverses only
		// when the element was up before, which the call sites ensure.
		switch delta.Op {
		case OpFailEdge:
			delete(fs.edges, pairKey(delta.U, delta.V))
		case OpFailNode:
			delete(fs.nodes, delta.Name)
		}
		return ok
	}

	stuck := 0
	for len(muts) < k {
		n0 := len(muts)
		roll := rng.Intn(total)
		switch {
		case roll < p.SetWeight:
			u, v := randomEdge()
			if err := step(Mutation{Op: OpSetWeight, U: cur.Name(u), V: cur.Name(v), W: weight()}); err != nil {
				return nil, nil, err
			}
		case roll < p.SetWeight+p.AddEdge:
			for try := 0; try < 16; try++ {
				u := graph.NodeID(rng.Intn(cur.N()))
				v := graph.NodeID(rng.Intn(cur.N()))
				if u == v || cur.Adjacent(u, v) {
					continue
				}
				if err := step(Mutation{Op: OpAddEdge, U: cur.Name(u), V: cur.Name(v), W: weight()}); err != nil {
					return nil, nil, err
				}
				break
			}
		case roll < p.SetWeight+p.AddEdge+p.RemoveEdge:
			// Remove an edge, but never cut the graph — nor the live
			// subgraph, which is what the serving path routes on.
			for try := 0; try < 16; try++ {
				u, v := randomEdge()
				if fs.EdgeDown(cur.Name(u), cur.Name(v)) {
					continue // removing a down pair cannot cut the live view, but keep churn on live links
				}
				m := Mutation{Op: OpRemoveEdge, U: cur.Name(u), V: cur.Name(v)}
				g, err := Replay(cur, []Mutation{m})
				if err != nil {
					return nil, nil, err
				}
				if !g.Connected() || !liveConnected(g, fs) {
					continue
				}
				cur = g
				fs.Observe(m)
				muts = append(muts, m)
				break
			}
		case roll < p.SetWeight+p.AddEdge+p.RemoveEdge+p.AddNode:
			for {
				if _, taken := cur.Lookup(nextName); !taken {
					break
				}
				nextName++
			}
			// Anchor to an up node: anchored to a down one, the join
			// would enter the live view already disconnected.
			anchor := graph.NodeID(-1)
			for try := 0; try < 32; try++ {
				a := graph.NodeID(rng.Intn(cur.N()))
				if !fs.NodeDown(cur.Name(a)) {
					anchor = a
					break
				}
			}
			if anchor < 0 {
				continue
			}
			if err := step(Mutation{Op: OpAddNode, Name: nextName, V: cur.Name(anchor), W: weight()}); err != nil {
				return nil, nil, err
			}
			nextName++
		case roll < p.SetWeight+p.AddEdge+p.RemoveEdge+p.AddNode+p.FailEdge:
			for try := 0; try < 16; try++ {
				u, v := randomEdge()
				un, vn := cur.Name(u), cur.Name(v)
				if fs.EdgeDown(un, vn) {
					continue
				}
				m := Mutation{Op: OpFailEdge, U: un, V: vn}
				if !survives(cur, m) {
					continue
				}
				if err := step(m); err != nil {
					return nil, nil, err
				}
				break
			}
		case roll < p.SetWeight+p.AddEdge+p.RemoveEdge+p.AddNode+p.FailEdge+p.FailNode:
			for try := 0; try < 16; try++ {
				x := graph.NodeID(rng.Intn(cur.N()))
				name := cur.Name(x)
				if fs.NodeDown(name) {
					continue
				}
				m := Mutation{Op: OpFailNode, Name: name}
				if !survives(cur, m) {
					continue
				}
				if err := step(m); err != nil {
					return nil, nil, err
				}
				break
			}
		default: // recover one outstanding fault
			downE, downN := fs.DownEdges(), fs.DownNodes()
			if len(downE)+len(downN) == 0 {
				continue
			}
			i := rng.Intn(len(downE) + len(downN))
			var m Mutation
			if i < len(downE) {
				m = Mutation{Op: OpRecoverEdge, U: downE[i][0], V: downE[i][1]}
			} else {
				m = Mutation{Op: OpRecoverNode, Name: downN[i-len(downE)]}
			}
			if err := step(m); err != nil {
				return nil, nil, err
			}
		}
		// Progress guard: a degenerate profile on a degenerate graph
		// (say, AddEdge-only on a clique) could spin forever in its
		// retry loops; fail loudly instead.
		if len(muts) == n0 {
			if stuck++; stuck > 1000 {
				return nil, nil, fmt.Errorf("dynamic: generating trace: no admissible mutation after %d attempts (profile %+v)", stuck, p)
			}
		} else {
			stuck = 0
		}
	}
	return muts[:k], fs, nil
}
