package dynamic

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"compactroute/internal/graph"
	"compactroute/internal/schemes"
	"compactroute/internal/sssp"
)

func TestFaultSetProjection(t *testing.T) {
	g := testGraph(t, 32, 7)
	u, v := g.Name(0), firstNeighborName(g, 0)
	w := g.Name(5)
	fs := NewFaultSet()
	if !fs.Quiescent() {
		t.Fatal("fresh set not quiescent")
	}
	fs.Observe(Mutation{Op: OpFailEdge, U: u, V: v})
	if !fs.EdgeDown(u, v) || !fs.EdgeDown(v, u) {
		t.Fatal("failed edge not down (both orientations)")
	}
	fs.Observe(Mutation{Op: OpFailNode, Name: w})
	if !fs.NodeDown(w) {
		t.Fatal("failed node not down")
	}
	// An edge is down when either endpoint is, without its own event.
	if !fs.EdgeDown(w, u) {
		t.Fatal("edge at a down endpoint not down")
	}
	if fs.Quiescent() {
		t.Fatal("quiescent with two elements down")
	}
	// Permanent removal clears transient state: gone, not down.
	fs.Observe(Mutation{Op: OpRemoveEdge, U: u, V: v})
	if fs.EdgeDown(u, v) {
		t.Fatal("removed edge still marked down")
	}
	// The recovery tail brings the set back to quiescence.
	for _, m := range fs.RecoveryMutations() {
		fs.Observe(m)
	}
	if !fs.Quiescent() {
		t.Fatalf("not quiescent after recovery tail: down edges %v nodes %v", fs.DownEdges(), fs.DownNodes())
	}
}

// TestFaultSetBlocks pins the one blocking rule every fault-view holder
// reads: a walk is blocked by a down node anywhere on it, or by a down
// pair between consecutive nodes, in either orientation.
func TestFaultSetBlocks(t *testing.T) {
	fs := NewFaultSet()
	fs.Observe(Mutation{Op: OpFailEdge, U: 3, V: 1})
	fs.Observe(Mutation{Op: OpFailNode, Name: 7})
	cases := []struct {
		name string
		path []uint64
		want bool
	}{
		{"down pair, failed orientation", []uint64{4, 3, 1, 2}, true},
		{"down pair, reverse orientation", []uint64{2, 1, 3}, true},
		{"down interior node", []uint64{1, 7, 2}, true},
		{"down source", []uint64{7, 2}, true},
		{"down destination", []uint64{2, 7}, true},
		{"down endpoints, not adjacent on the path", []uint64{1, 2, 3}, false},
		{"one-node path", []uint64{1}, false},
		{"one-node path at a down node", []uint64{7}, true},
		{"empty path", nil, false},
	}
	for _, c := range cases {
		if got := fs.Blocks(c.path); got != c.want {
			t.Errorf("%s: Blocks(%v) = %v, want %v", c.name, c.path, got, c.want)
		}
	}
}

func TestLogValidatesFaultSequencing(t *testing.T) {
	g := testGraph(t, 48, 9)
	u, v := g.Name(0), firstNeighborName(g, 0)
	w := g.Name(7)
	l := NewLog(g)
	bad := []struct {
		name string
		m    Mutation
	}{
		{"recover up edge", Mutation{Op: OpRecoverEdge, U: u, V: v}},
		{"recover up node", Mutation{Op: OpRecoverNode, Name: w}},
		{"fail missing edge", Mutation{Op: OpFailEdge, U: u, V: w}},
		{"fail unknown node", Mutation{Op: OpFailNode, Name: 0xdead_beef}},
		{"fail self loop", Mutation{Op: OpFailEdge, U: u, V: u}},
	}
	for _, c := range bad {
		if _, err := l.Append(c.m); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := l.Append(Mutation{Op: OpFailEdge, U: u, V: v}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Mutation{Op: OpFailEdge, U: v, V: u}); err == nil {
		t.Error("double fail accepted (orientation must not matter)")
	}
	// Removing a down edge is legal and clears the flag: recovering the
	// now-gone pair must fail.
	if _, err := l.Append(Mutation{Op: OpRemoveEdge, U: u, V: v}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Mutation{Op: OpRecoverEdge, U: u, V: v}); err == nil {
		t.Error("recover of a removed edge accepted")
	}
	// Batch atomicity: a failing tail must roll back the whole batch,
	// including its fault-shadow updates.
	if _, err := l.Append(
		Mutation{Op: OpFailNode, Name: w},
		Mutation{Op: OpFailNode, Name: w},
	); err == nil {
		t.Fatal("double node fail in one batch accepted")
	}
	if _, err := l.Append(Mutation{Op: OpRecoverNode, Name: w}); err == nil {
		t.Error("fault shadow leaked from a rejected batch")
	}
	// Pair events read the pair's own flag, not the node view: a pair
	// at a down node fails and recovers like any other.
	x := firstNeighborName(g, 7)
	if _, err := l.Append(Mutation{Op: OpFailNode, Name: w}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Mutation{Op: OpFailEdge, U: w, V: x}); err != nil {
		t.Fatalf("fail of a pair at a down node: %v", err)
	}
	if _, err := l.Append(Mutation{Op: OpRecoverEdge, U: x, V: w}); err != nil {
		t.Fatalf("recover of a pair at a down node: %v", err)
	}
}

func TestGenerateFaultTraceDeterministicAndSafe(t *testing.T) {
	g := testGraph(t, 96, 11)
	a, fsA, err := GenerateFaultTrace(g, 120, 5, DefaultTraceProfile())
	if err != nil {
		t.Fatal(err)
	}
	b, fsB, err := GenerateFaultTrace(g, 120, 5, DefaultTraceProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	if !reflect.DeepEqual(fsA.DownEdges(), fsB.DownEdges()) || !reflect.DeepEqual(fsA.DownNodes(), fsB.DownNodes()) {
		t.Fatal("same seed produced different fault sets")
	}
	// Every prefix must keep the up-subgraph connected: a packet
	// between any two up nodes always has a live path.
	fs := NewFaultSet()
	for i, m := range a {
		fs.Observe(m)
		gi, err := Replay(g, a[:i+1])
		if err != nil {
			t.Fatalf("mutation %d (%s): %v", i, m, err)
		}
		if !liveConnected(gi, fs) {
			t.Fatalf("after mutation %d (%s): up-subgraph disconnected", i, m)
		}
	}
	// The recovery tail closes every open outage.
	for _, m := range fsA.RecoveryMutations() {
		fs.Observe(m)
	}
	if !fs.Quiescent() {
		t.Fatal("recovery tail did not reach quiescence")
	}
	// The trace must actually contain transient events (the profile
	// asks for them); a trace of pure churn would vacuously pass.
	transient := 0
	for _, m := range a {
		if m.Op.Transient() {
			transient++
		}
	}
	if transient == 0 {
		t.Fatal("trace contains no failure/recovery events")
	}
}

func TestFaultTraceTextAndJSONRoundTrip(t *testing.T) {
	g := testGraph(t, 64, 13)
	muts, fs, err := GenerateFaultTrace(g, 80, 7, DefaultTraceProfile())
	if err != nil {
		t.Fatal(err)
	}
	muts = append(muts, fs.RecoveryMutations()...)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, muts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(muts, back) {
		t.Fatal("text round-trip changed the trace")
	}
	blob, err := json.Marshal(muts)
	if err != nil {
		t.Fatal(err)
	}
	var jback []Mutation
	if err := json.Unmarshal(blob, &jback); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(muts, jback) {
		t.Fatal("JSON round-trip changed the trace")
	}
}

// TestFaultTraceQuiescenceColdIdentical is the fault layer's core
// property: a failure+recovery trace replayed to quiescence — with
// rebuilds cut mid-outage, so transient state spans version
// boundaries — leaves the graph byte-identical to a one-shot replay,
// and every scheme kind routing bit-identically to a cold build of the
// final topology. Failures are views, not topology: once every element
// recovers, nothing about the rebuilt world may remember them.
func TestFaultTraceQuiescenceColdIdentical(t *testing.T) {
	kinds := []string{
		schemes.KindPaper, schemes.KindFullTable, schemes.KindAPCover,
		schemes.KindLandmarkChain, schemes.KindTZ,
	}
	g := testGraph(t, 72, 29)
	trace, fs, err := GenerateFaultTrace(g, 60, 5, DefaultTraceProfile())
	if err != nil {
		t.Fatal(err)
	}
	trace = append(trace, fs.RecoveryMutations()...)
	final, err := Replay(g, trace)
	if err != nil {
		t.Fatal(err)
	}
	apsp := sssp.AllPairs(final)
	cold := make(map[string]schemes.Scheme, len(kinds))
	for _, kind := range kinds {
		c, err := schemes.Build(final, apsp, schemes.Config{Kind: kind, K: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cold[kind] = c
	}

	cfgs := make([]schemes.Config, len(kinds))
	for i, k := range kinds {
		cfgs[i] = schemes.Config{Kind: k, K: 2, Seed: 1}
	}
	tp, err := NewTopology(context.Background(), g, TopologyOptions{Configs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	// Three rebuilds at arbitrary cut points: outages opened in one
	// range recover in a later one, so each Rebuild replays a window
	// that is NOT internally balanced — the composition property
	// Replay's existence-only validation exists for.
	cuts := []int{len(trace) / 3, 2 * len(trace) / 3, len(trace)}
	prev := 0
	for _, cut := range cuts {
		if _, err := tp.Apply(trace[prev:cut]...); err != nil {
			t.Fatalf("apply [%d:%d]: %v", prev, cut, err)
		}
		if _, _, err := tp.Rebuild(context.Background()); err != nil {
			t.Fatalf("rebuild at %d: %v", cut, err)
		}
		prev = cut
	}
	hot := tp.Current()
	if graphFingerprint(final) != graphFingerprint(hot.Graph()) {
		t.Fatal("quiesced graph diverged from one-shot replay")
	}
	for _, kind := range kinds {
		for s := 0; s < final.N(); s += 7 {
			for d := 0; d < final.N(); d += 5 {
				srcName := final.Name(graph.NodeID(s))
				dstName := final.Name(graph.NodeID(d))
				want, err := hot.engine.RouteCtx(context.Background(), cold[kind], graph.NodeID(s), dstName)
				if err != nil {
					t.Fatal(err)
				}
				got, err := hot.Route(context.Background(), kind, srcName, dstName)
				if err != nil {
					t.Fatal(err)
				}
				if got.Delivered != want.Delivered || got.Cost != want.Cost ||
					got.Hops != want.Hops || got.MaxHeaderBits != want.MaxHeaderBits {
					t.Fatalf("%s %d→%d: hot %+v cold %+v", kind, s, d, got, want)
				}
			}
		}
	}
}
