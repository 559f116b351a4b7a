// Package dynamic is the control plane that turns the repository's
// static preprocessing schemes into a live system: an append-only
// graph mutation log, versioned immutable topology snapshots — each
// rebuilt from its own all-pairs metric, computed once and kept with
// the version (Version.Metric) — and a hot-swap serving handle
// (Swapper) that publishes exactly one sealed version at a time.
//
// The model follows the distance-oracle literature: a compact routing
// scheme is a rebuildable compressed snapshot of the metric. Mutations
// never touch a served scheme — they accumulate in the Log; a rebuild
// replays the pending range onto the current graph (Replay), constructs
// fresh schemes in the background, and Swap publishes the result with a
// sub-millisecond pause. In-flight routes finish on the version they
// resolved at admission; new requests see the new version.
//
// Determinism is load-bearing end to end: the log is replayable
// (Replay(g, A++B) and Replay(Replay(g, A), B) build byte-identical
// CSR layouts — see Replay), builders are seeded and read only the
// replayed graph's rows, so a rebuilt version equals a cold build of
// the same graph. That is what makes hot swap testable: post-swap
// routes must be bit-identical to a cold build of the final topology.
package dynamic

import (
	"fmt"
	"sort"
	"sync"

	"compactroute/internal/graph"
)

// Op is a mutation's operation kind.
type Op uint8

// The mutation operations. Edge operations address the unordered
// endpoint pair by external name; RemoveEdge and SetWeight act on
// every parallel edge of the pair (the metric only ever uses the
// lightest, and the pair is the unit a topology feed addresses).
const (
	// OpAddNode adds a node with a fresh external name, optionally
	// anchored to an existing node by one edge in the same atomic
	// mutation (V/W set). The anchored form is how nodes join a live
	// topology: a rebuild may seal the log at ANY position, so a
	// separate add-node/add-edge pair could be split across versions,
	// leaving a version with an isolated — unroutable — node.
	OpAddNode Op = iota + 1
	// OpAddEdge adds one undirected edge between two existing nodes.
	OpAddEdge
	// OpRemoveEdge removes every edge between the endpoint pair.
	OpRemoveEdge
	// OpSetWeight sets the weight of every edge between the pair.
	OpSetWeight

	// The transient failure events. They model unplanned loss — a link
	// or node that is down, not gone: the permanent topology (what
	// Replay builds, what a rebuild seals) is unchanged, and a FaultSet
	// projected over the same mutation stream carries the down/up view
	// the serving path routes around (serve.Repairer, DESIGN.md §10).
	// Keeping failures out of the replayed graph is what preserves the
	// PR 5 composition contract: a trace replayed to quiescence yields
	// a graph byte-identical to a cold build of the final topology.

	// OpFailEdge marks every edge of the endpoint pair down.
	OpFailEdge
	// OpRecoverEdge brings a failed endpoint pair back up.
	OpRecoverEdge
	// OpFailNode marks a node (and so every edge at it) down.
	OpFailNode
	// OpRecoverNode brings a failed node back up.
	OpRecoverNode
)

// Transient reports whether the op is a failure/recovery event — a
// change to the fault overlay, not to the permanent topology.
func (o Op) Transient() bool {
	switch o {
	case OpFailEdge, OpRecoverEdge, OpFailNode, OpRecoverNode:
		return true
	}
	return false
}

// String returns the trace spelling of the op.
func (o Op) String() string {
	switch o {
	case OpAddNode:
		return "addnode"
	case OpAddEdge:
		return "addedge"
	case OpRemoveEdge:
		return "removeedge"
	case OpSetWeight:
		return "setweight"
	case OpFailEdge:
		return "failedge"
	case OpRecoverEdge:
		return "recoveredge"
	case OpFailNode:
		return "failnode"
	case OpRecoverNode:
		return "recovernode"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// ParseOp parses the trace spelling of an op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "addnode":
		return OpAddNode, nil
	case "addedge":
		return OpAddEdge, nil
	case "removeedge":
		return OpRemoveEdge, nil
	case "setweight":
		return OpSetWeight, nil
	case "failedge":
		return OpFailEdge, nil
	case "recoveredge":
		return OpRecoverEdge, nil
	case "failnode":
		return OpFailNode, nil
	case "recovernode":
		return OpRecoverNode, nil
	default:
		return 0, fmt.Errorf("dynamic: unknown op %q", s)
	}
}

// Mutation is one topology change, addressed entirely by external
// names (the only stable identity across versions — internal dense ids
// are reassigned by every rebuild).
type Mutation struct {
	Op Op
	// Name is the new node's external name (OpAddNode only).
	Name uint64
	// U, V are the edge endpoints by external name (edge ops only).
	// For an anchored OpAddNode, V is the existing anchor node.
	U, V uint64
	// W is the edge weight (OpAddEdge, OpSetWeight, anchored OpAddNode).
	W float64
}

// Anchored reports whether an OpAddNode carries its anchor edge: any
// non-zero anchor field makes the mutation anchored, so a half-formed
// join (anchor without a valid weight, or vice versa) is validated —
// and rejected — rather than silently admitted as an isolated,
// unroutable node. The zero value of both fields is the unanchored
// sentinel, which leaves one literal-construction blind spot — anchor
// node named 0 with weight 0 — that the wire decoders (JSON, trace)
// close by rejecting non-positive anchored weights outright; in-
// process callers use MutAddNode, whose weight a later Append
// validates as a real edge weight (> 0) whenever either field is set.
func (m Mutation) Anchored() bool { return m.Op == OpAddNode && (m.V != 0 || m.W != 0) }

// String renders the mutation in its trace spelling.
func (m Mutation) String() string {
	switch m.Op {
	case OpAddNode:
		if m.Anchored() {
			return fmt.Sprintf("addnode %d %d %g", m.Name, m.V, m.W)
		}
		return fmt.Sprintf("addnode %d", m.Name)
	case OpAddEdge:
		return fmt.Sprintf("addedge %d %d %g", m.U, m.V, m.W)
	case OpRemoveEdge:
		return fmt.Sprintf("removeedge %d %d", m.U, m.V)
	case OpSetWeight:
		return fmt.Sprintf("setweight %d %d %g", m.U, m.V, m.W)
	case OpFailEdge, OpRecoverEdge:
		return fmt.Sprintf("%s %d %d", m.Op, m.U, m.V)
	case OpFailNode, OpRecoverNode:
		return fmt.Sprintf("%s %d", m.Op, m.Name)
	default:
		return m.Op.String()
	}
}

// pairKey folds an unordered name pair into a map key.
func pairKey(u, v uint64) [2]uint64 {
	if u > v {
		u, v = v, u
	}
	return [2]uint64{u, v}
}

// Log is the append-only, replayable mutation log. Appends are
// validated against a shadow of the tip topology (base graph plus
// every accepted mutation), so a mutation that survives Append can
// never fail to replay: AddNode requires a fresh name, edge ops
// require live endpoints, AddEdge a positive finite weight, and
// RemoveEdge/SetWeight an existing edge. The transient failure events
// are validated against a parallel fault shadow — FailEdge needs a
// present, up pair; RecoverEdge a down pair; FailNode/RecoverNode an
// existing up/down node — so fail/recover sequencing survives Append
// exactly once per element. Sequence numbers are 1-based; 0 is "the
// base graph, nothing applied".
type Log struct {
	mu    sync.RWMutex
	muts  []Mutation
	nodes map[uint64]bool   // live node names at the tip
	edges map[[2]uint64]int // unordered pair -> parallel edge count
	// faults is the fault shadow at the tip: transient events change
	// only it, never nodes/edges (removing a pair clears its down flag
	// — the element is gone, not down).
	faults *FaultSet
}

// NewLog returns a log whose sequence 0 state is the base graph.
func NewLog(base *graph.Graph) *Log {
	l := &Log{
		nodes:  make(map[uint64]bool, base.N()),
		edges:  make(map[[2]uint64]int, base.M()),
		faults: NewFaultSet(),
	}
	for u := graph.NodeID(0); int(u) < base.N(); u++ {
		l.nodes[base.Name(u)] = true
	}
	base.ForEachEdge(func(u, v graph.NodeID, w float64) bool {
		l.edges[pairKey(base.Name(u), base.Name(v))]++
		return true
	})
	return l
}

// Append validates and appends the mutations atomically: either every
// mutation is accepted (returning the sequence number of the last) or
// none is, so a rejected batch leaves no partial state behind.
// Sequential semantics — each mutation is validated against the state
// left by the ones before it in the same batch.
func (l *Log) Append(ms ...Mutation) (last uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Validate against a read-through overlay; commit only if the
	// whole batch passes.
	ovNodes := make(map[uint64]bool)
	ovEdges := make(map[[2]uint64]int)
	ovDownNodes := make(map[uint64]bool)
	ovDownEdges := make(map[[2]uint64]bool)
	node := func(name uint64) bool {
		if v, ok := ovNodes[name]; ok {
			return v
		}
		return l.nodes[name]
	}
	edgeCount := func(k [2]uint64) int {
		if v, ok := ovEdges[k]; ok {
			return v
		}
		return l.edges[k]
	}
	nodeDown := func(name uint64) bool {
		if v, ok := ovDownNodes[name]; ok {
			return v
		}
		return l.faults.NodeDown(name)
	}
	// The pair's own flag, not FaultSet.EdgeDown: failing or
	// recovering a pair at a down node is legal.
	edgeDown := func(k [2]uint64) bool {
		if v, ok := ovDownEdges[k]; ok {
			return v
		}
		return l.faults.edges[k]
	}
	for i, m := range ms {
		fail := func(format string, args ...any) (uint64, error) {
			return 0, fmt.Errorf("dynamic: mutation %d: %s", i, fmt.Sprintf(format, args...))
		}
		switch m.Op {
		case OpAddNode:
			if node(m.Name) {
				return fail("addnode %d: name already exists", m.Name)
			}
			if m.Anchored() {
				if m.V == m.Name {
					return fail("addnode %d: anchored to itself", m.Name)
				}
				if !node(m.V) {
					return fail("addnode %d: unknown anchor %d", m.Name, m.V)
				}
				if !(m.W > 0) || m.W != m.W || m.W > 1e300 {
					return fail("addnode %d: invalid anchor weight %v", m.Name, m.W)
				}
				ovEdges[pairKey(m.Name, m.V)] = 1
			}
			ovNodes[m.Name] = true
		case OpAddEdge, OpRemoveEdge, OpSetWeight:
			if m.U == m.V {
				return fail("%s: self-loop on %d", m.Op, m.U)
			}
			if !node(m.U) {
				return fail("%s: unknown node %d", m.Op, m.U)
			}
			if !node(m.V) {
				return fail("%s: unknown node %d", m.Op, m.V)
			}
			if m.Op != OpRemoveEdge && (!(m.W > 0) || m.W != m.W || m.W > 1e300) {
				return fail("%s %d %d: invalid weight %v", m.Op, m.U, m.V, m.W)
			}
			k := pairKey(m.U, m.V)
			switch m.Op {
			case OpAddEdge:
				ovEdges[k] = edgeCount(k) + 1
			case OpRemoveEdge, OpSetWeight:
				if edgeCount(k) == 0 {
					return fail("%s: no edge between %d and %d", m.Op, m.U, m.V)
				}
				if m.Op == OpRemoveEdge {
					ovEdges[k] = 0
					ovDownEdges[k] = false // the pair is gone, not down
				}
			}
		case OpFailEdge, OpRecoverEdge:
			if m.U == m.V {
				return fail("%s: self-loop on %d", m.Op, m.U)
			}
			if !node(m.U) {
				return fail("%s: unknown node %d", m.Op, m.U)
			}
			if !node(m.V) {
				return fail("%s: unknown node %d", m.Op, m.V)
			}
			k := pairKey(m.U, m.V)
			if edgeCount(k) == 0 {
				return fail("%s: no edge between %d and %d", m.Op, m.U, m.V)
			}
			if m.Op == OpFailEdge {
				if edgeDown(k) {
					return fail("failedge: edge %d-%d already down", m.U, m.V)
				}
				ovDownEdges[k] = true
			} else {
				if !edgeDown(k) {
					return fail("recoveredge: edge %d-%d is not down", m.U, m.V)
				}
				ovDownEdges[k] = false
			}
		case OpFailNode, OpRecoverNode:
			if !node(m.Name) {
				return fail("%s: unknown node %d", m.Op, m.Name)
			}
			if m.Op == OpFailNode {
				if nodeDown(m.Name) {
					return fail("failnode: node %d already down", m.Name)
				}
				ovDownNodes[m.Name] = true
			} else {
				if !nodeDown(m.Name) {
					return fail("recovernode: node %d is not down", m.Name)
				}
				ovDownNodes[m.Name] = false
			}
		default:
			return fail("invalid op %d", m.Op)
		}
	}
	for _, m := range ms {
		switch m.Op {
		case OpAddNode:
			l.nodes[m.Name] = true
			if m.Anchored() {
				l.edges[pairKey(m.Name, m.V)]++
			}
		case OpAddEdge:
			l.edges[pairKey(m.U, m.V)]++
		case OpRemoveEdge:
			delete(l.edges, pairKey(m.U, m.V))
		}
		l.faults.Observe(m)
		l.muts = append(l.muts, m)
	}
	return uint64(len(l.muts)), nil
}

// Len returns the sequence number of the newest mutation (0: none).
func (l *Log) Len() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return uint64(len(l.muts))
}

// Slice returns the mutations in the half-open sequence range
// (from, to] — the range a rebuild applies on top of a version sealed
// at sequence from. The returned slice is a copy.
func (l *Log) Slice(from, to uint64) []Mutation {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if to > uint64(len(l.muts)) {
		to = uint64(len(l.muts))
	}
	if from >= to {
		return nil
	}
	out := make([]Mutation, to-from)
	copy(out, l.muts[from:to])
	return out
}

// Replay applies a mutation range to a base graph and returns the new
// sealed graph. It is deterministic AND composition-invariant: the
// final edge list is stably sorted by the unordered endpoint-id pair,
// so Replay(g, A++B) and Replay(Replay(g, A), B) produce graphs with
// byte-identical CSR layouts (ports and all) — the property that makes
// incrementally rebuilt versions bit-identical to a cold build of the
// final topology. Node ids are preserved: base nodes keep their ids,
// added nodes take the next ids in mutation order. Labels survive.
//
// Transient failure events are validated for existence (the element
// they name must be present at that point in the range) but change
// nothing: a failure is a fault-overlay fact (FaultSet), not topology,
// which is what keeps the composition contract intact across traces
// containing failures. Replay deliberately does NOT check fail/recover
// alternation — that is Append's job against the full log; a range
// sliced mid-outage legitimately begins with a recover for an element
// failed in an earlier range, and rejecting it would break the very
// composition property above.
//
// Replay trusts its input the way the Log guarantees it: an invalid
// mutation (unknown endpoint, duplicate name, absent edge) returns an
// error and no graph.
func Replay(base *graph.Graph, muts []Mutation) (*graph.Graph, error) {
	b := graph.NewBuilder()
	id := make(map[uint64]graph.NodeID, base.N()+len(muts))
	for u := graph.NodeID(0); int(u) < base.N(); u++ {
		name := base.Name(u)
		if label, ok := base.Label(u); ok {
			id[name] = b.AddLabeled(label)
		} else {
			id[name] = b.AddNode(name)
		}
	}

	type rec struct {
		u, v graph.NodeID // u < v in the new id space
		w    float64
		live bool
	}
	var recs []rec
	// byPair indexes the live records of each unordered pair so edge
	// ops are O(parallel edges), not O(m).
	byPair := make(map[[2]uint64][]int, base.M())
	addRec := func(uName, vName uint64, w float64) error {
		u, okU := id[uName]
		v, okV := id[vName]
		if !okU || !okV {
			return fmt.Errorf("dynamic: replay: edge (%d,%d) references unknown node", uName, vName)
		}
		if u > v {
			u, v = v, u
		}
		k := pairKey(uName, vName)
		byPair[k] = append(byPair[k], len(recs))
		recs = append(recs, rec{u: u, v: v, w: w, live: true})
		return nil
	}
	var err error
	base.ForEachEdge(func(u, v graph.NodeID, w float64) bool {
		err = addRec(base.Name(u), base.Name(v), w)
		return err == nil
	})
	if err != nil {
		return nil, err
	}

	for i, m := range muts {
		switch m.Op {
		case OpAddNode:
			if _, dup := id[m.Name]; dup {
				return nil, fmt.Errorf("dynamic: replay mutation %d: addnode %d: name already exists", i, m.Name)
			}
			id[m.Name] = b.AddNode(m.Name)
			if m.Anchored() {
				if err := addRec(m.Name, m.V, m.W); err != nil {
					return nil, fmt.Errorf("dynamic: replay mutation %d: %w", i, err)
				}
			}
		case OpAddEdge:
			if err := addRec(m.U, m.V, m.W); err != nil {
				return nil, fmt.Errorf("dynamic: replay mutation %d: %w", i, err)
			}
		case OpRemoveEdge, OpSetWeight:
			k := pairKey(m.U, m.V)
			touched := 0
			for _, ri := range byPair[k] {
				if !recs[ri].live {
					continue
				}
				touched++
				if m.Op == OpRemoveEdge {
					recs[ri].live = false
				} else {
					recs[ri].w = m.W
				}
			}
			if touched == 0 {
				return nil, fmt.Errorf("dynamic: replay mutation %d: %s: no edge between %d and %d", i, m.Op, m.U, m.V)
			}
			if m.Op == OpRemoveEdge {
				delete(byPair, k)
			}
		case OpFailEdge, OpRecoverEdge:
			// Transient: validated, applied to nothing (see above).
			k := pairKey(m.U, m.V)
			live := 0
			for _, ri := range byPair[k] {
				if recs[ri].live {
					live++
				}
			}
			if live == 0 {
				return nil, fmt.Errorf("dynamic: replay mutation %d: %s: no edge between %d and %d", i, m.Op, m.U, m.V)
			}
		case OpFailNode, OpRecoverNode:
			if _, ok := id[m.Name]; !ok {
				return nil, fmt.Errorf("dynamic: replay mutation %d: %s: unknown node %d", i, m.Op, m.Name)
			}
		default:
			return nil, fmt.Errorf("dynamic: replay mutation %d: invalid op %d", i, m.Op)
		}
	}

	// Canonical order: stable sort by the id pair. Parallel edges of
	// one pair keep their arrival order (which canonical iteration of
	// the built graph preserves), closing the composition argument.
	live := make([]int, 0, len(recs))
	for ri := range recs {
		if recs[ri].live {
			live = append(live, ri)
		}
	}
	sort.SliceStable(live, func(a, b int) bool {
		ra, rb := recs[live[a]], recs[live[b]]
		if ra.u != rb.u {
			return ra.u < rb.u
		}
		return ra.v < rb.v
	})
	for _, ri := range live {
		if err := b.AddEdge(recs[ri].u, recs[ri].v, recs[ri].w); err != nil {
			return nil, fmt.Errorf("dynamic: replay: %w", err)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("dynamic: replay: %w", err)
	}
	return g, nil
}
