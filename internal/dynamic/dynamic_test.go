package dynamic

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"compactroute/internal/codec"
	"compactroute/internal/core"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/routeerr"
	"compactroute/internal/schemes"
	"compactroute/internal/sssp"
)

func testGraph(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	g := gen.Gnp(seed, n, 8/float64(n), gen.Uniform(1, 8))
	if !g.Connected() {
		t.Fatalf("test graph gnp(n=%d, seed=%d) not connected", n, seed)
	}
	return g
}

// graphFingerprint captures the CSR-visible structure: names in id
// order and every edge in canonical order with its weight. Two graphs
// with equal fingerprints route identically under every deterministic
// scheme build.
func graphFingerprint(g *graph.Graph) string {
	var b bytes.Buffer
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		b.WriteString(string(rune(0)))
		json.NewEncoder(&b).Encode(g.Name(u))
		g.Neighbors(u, func(e graph.Edge) bool {
			json.NewEncoder(&b).Encode([3]any{e.To, e.Weight, e.Port})
			return true
		})
	}
	return b.String()
}

func TestLogValidatesAppends(t *testing.T) {
	g := testGraph(t, 64, 3)
	l := NewLog(g)
	u, v := g.Name(0), g.Name(1)
	cases := []struct {
		name string
		m    Mutation
	}{
		{"dup node", Mutation{Op: OpAddNode, Name: u}},
		{"unknown endpoint", Mutation{Op: OpAddEdge, U: 0xdead_beef_dead, V: v, W: 1}},
		{"self loop", Mutation{Op: OpAddEdge, U: u, V: u, W: 1}},
		{"bad weight", Mutation{Op: OpAddEdge, U: u, V: v, W: -1}},
		{"nan weight", Mutation{Op: OpSetWeight, U: u, V: v, W: nan()}},
		{"invalid op", Mutation{Op: Op(99)}},
		// A half-formed join (anchor without a positive weight) must be
		// validated as anchored and rejected — not silently admitted as
		// an isolated, unroutable node.
		{"anchor without weight", Mutation{Op: OpAddNode, Name: 0x77, V: u}},
		{"anchor bad weight", Mutation{Op: OpAddNode, Name: 0x77, V: u, W: -2}},
		{"unknown anchor", Mutation{Op: OpAddNode, Name: 0x77, V: 0xdead_beef_dead, W: 1}},
	}
	for _, tc := range cases {
		if _, err := l.Append(tc.m); err == nil {
			t.Errorf("%s: Append accepted %v", tc.name, tc.m)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("rejected appends advanced the log to %d", l.Len())
	}
	// A batch with a late invalid mutation must commit nothing.
	if _, err := l.Append(
		Mutation{Op: OpAddNode, Name: 0x1234},
		Mutation{Op: OpAddNode, Name: 0x1234},
	); err == nil {
		t.Fatal("batch with duplicate addnode accepted")
	}
	if l.Len() != 0 {
		t.Fatalf("failed batch advanced the log to %d", l.Len())
	}
	// Batch-internal sequencing: an edge to a node added earlier in
	// the same batch is valid.
	last, err := l.Append(
		Mutation{Op: OpAddNode, Name: 0x5678},
		Mutation{Op: OpAddEdge, U: 0x5678, V: u, W: 2},
	)
	if err != nil || last != 2 {
		t.Fatalf("sequenced batch: last=%d err=%v", last, err)
	}
	// Removing a removed edge fails at append time.
	if _, err := l.Append(Mutation{Op: OpRemoveEdge, U: 0x5678, V: u}); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := l.Append(Mutation{Op: OpSetWeight, U: 0x5678, V: u, W: 1}); err == nil {
		t.Fatal("setweight on removed edge accepted")
	}
}

func nan() float64 {
	var z float64
	return z / z
}

func TestReplayAppliesEveryOp(t *testing.T) {
	g := testGraph(t, 32, 5)
	u := g.Name(0)
	// Find an existing edge to remove and one to reweight.
	var eu, ev, ru, rv uint64
	found := 0
	g.ForEachEdge(func(a, b graph.NodeID, w float64) bool {
		switch found {
		case 0:
			eu, ev = g.Name(a), g.Name(b)
		case 1:
			ru, rv = g.Name(a), g.Name(b)
		}
		found++
		return found < 2
	})
	muts := []Mutation{
		{Op: OpAddNode, Name: 0xABC},
		{Op: OpAddEdge, U: 0xABC, V: u, W: 3.5},
		{Op: OpRemoveEdge, U: eu, V: ev},
		{Op: OpSetWeight, U: ru, V: rv, W: 7.25},
	}
	g2, err := Replay(g, muts)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N()+1 || g2.M() != g.M() {
		t.Fatalf("got n=%d m=%d, want n=%d m=%d", g2.N(), g2.M(), g.N()+1, g.M())
	}
	id, ok := g2.Lookup(0xABC)
	if !ok || g2.Degree(id) != 1 {
		t.Fatalf("added node: ok=%v degree=%d", ok, g2.Degree(id))
	}
	a2, _ := g2.Lookup(eu)
	b2, _ := g2.Lookup(ev)
	if g2.Adjacent(a2, b2) {
		t.Fatal("removed edge still present")
	}
	c2, _ := g2.Lookup(ru)
	d2, _ := g2.Lookup(rv)
	p := g2.PortTo(c2, d2)
	if p < 0 || g2.EdgeAt(c2, p).Weight != 7.25 {
		t.Fatalf("setweight: port %d", p)
	}
	// Base node ids are preserved.
	for i := 0; i < g.N(); i++ {
		if g.Name(graph.NodeID(i)) != g2.Name(graph.NodeID(i)) {
			t.Fatalf("node id %d renamed", i)
		}
	}
}

// TestReplayComposition pins the property hot-swap correctness rests
// on: replaying a trace incrementally (in arbitrary batch splits)
// builds a graph byte-identical in structure to the one-shot replay.
func TestReplayComposition(t *testing.T) {
	g := testGraph(t, 96, 7)
	muts, err := GenerateTrace(g, 120, 11)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := Replay(g, muts)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range [][]int{{40, 80}, {1, 2, 3}, {119}, {60}} {
		cur := g
		prev := 0
		for _, at := range append(split, len(muts)) {
			cur, err = Replay(cur, muts[prev:at])
			if err != nil {
				t.Fatalf("split %v at %d: %v", split, at, err)
			}
			prev = at
		}
		if graphFingerprint(cur) != graphFingerprint(oneShot) {
			t.Fatalf("split %v: incremental replay diverged from one-shot", split)
		}
	}
}

func TestGenerateTraceIsDeterministicAndSafe(t *testing.T) {
	g := testGraph(t, 80, 9)
	a, err := GenerateTrace(g, 150, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(g, 150, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	if len(a) != 150 {
		t.Fatalf("trace length %d, want 150", len(a))
	}
	// Every prefix replays and stays connected (the generator's
	// contract: schemes must keep delivering during churn).
	cur := g
	for i, m := range a {
		cur, err = Replay(cur, []Mutation{m})
		if err != nil {
			t.Fatalf("mutation %d (%v): %v", i, m, err)
		}
		if !cur.Connected() {
			t.Fatalf("mutation %d (%v) disconnected the graph", i, m)
		}
	}
	c, err := GenerateTrace(g, 150, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	g := testGraph(t, 48, 13)
	muts, err := GenerateTrace(g, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, muts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(muts, got) {
		t.Fatal("trace text round-trip diverged")
	}

	// JSON round-trip (the POST /mutate wire form).
	jb, err := json.Marshal(muts)
	if err != nil {
		t.Fatal(err)
	}
	var jm []Mutation
	if err := json.Unmarshal(jb, &jm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(muts, jm) {
		t.Fatal("JSON round-trip diverged")
	}
	// Missing required fields are rejected.
	var m Mutation
	if err := json.Unmarshal([]byte(`{"op":"addedge","u":1,"v":2}`), &m); err == nil {
		t.Fatal("addedge without w accepted")
	}
	if err := json.Unmarshal([]byte(`{"op":"frobnicate"}`), &m); err == nil {
		t.Fatal("unknown op accepted")
	}
	// A zero anchored weight must fail at the wire, even when the
	// anchor is the node named 0 (where Anchored() could not tell the
	// half-formed join from a plain addnode).
	if err := json.Unmarshal([]byte(`{"op":"addnode","name":9,"v":0,"w":0}`), &m); err == nil {
		t.Fatal("anchored addnode with zero weight accepted (JSON)")
	}
	if _, err := ReadTrace(strings.NewReader("mut 1\naddnode 9 0 0\n")); err == nil {
		t.Fatal("anchored addnode with zero weight accepted (trace)")
	}
}

func testTopology(t *testing.T, g *graph.Graph, kinds ...string) *Topology {
	t.Helper()
	cfgs := make([]schemes.Config, len(kinds))
	for i, k := range kinds {
		cfgs[i] = schemes.Config{Kind: k, K: 2, Seed: 1}
	}
	tp, err := NewTopology(context.Background(), g, TopologyOptions{Configs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestTopologyRebuildSwapsAndMatchesColdBuild(t *testing.T) {
	g := testGraph(t, 72, 17)
	tp := testTopology(t, g, schemes.KindFullTable, schemes.KindLandmarkChain)
	v0 := tp.Current()
	if v0.ID != 0 || v0.MutTo != 0 {
		t.Fatalf("v0 = %+v", v0)
	}
	muts, err := GenerateTrace(g, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Apply(muts[:25]...); err != nil {
		t.Fatal(err)
	}
	if got := tp.Pending(); got != 25 {
		t.Fatalf("pending = %d, want 25", got)
	}
	v1, pause, err := tp.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v1.ID != 1 || v1.Parent != 0 || v1.MutFrom != 0 || v1.MutTo != 25 {
		t.Fatalf("v1 lineage = %+v", v1)
	}
	if pause <= 0 {
		t.Fatalf("pause = %v", pause)
	}
	if tp.Current() != v1 {
		t.Fatal("swap did not publish v1")
	}
	if tp.Pending() != 0 {
		t.Fatalf("pending after rebuild = %d", tp.Pending())
	}
	if _, err := tp.Apply(muts[25:]...); err != nil {
		t.Fatal(err)
	}
	v2, _, err := tp.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v2.MutFrom != 25 || v2.MutTo != 40 || v2.Parent != 1 {
		t.Fatalf("v2 lineage = %+v", v2)
	}

	// The incrementally rebuilt topology must route bit-identically to
	// a cold build of the final graph.
	final, err := Replay(g, muts)
	if err != nil {
		t.Fatal(err)
	}
	if graphFingerprint(final) != graphFingerprint(v2.Graph()) {
		t.Fatal("incremental graph diverged from one-shot replay")
	}
	apsp := sssp.AllPairs(final)
	for _, kind := range []string{schemes.KindFullTable, schemes.KindLandmarkChain} {
		cold, err := schemes.Build(final, apsp, schemes.Config{Kind: kind, K: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < final.N(); s += 7 {
			for d := 0; d < final.N(); d += 5 {
				want, err := tp.Current().Route(context.Background(), kind, final.Name(graph.NodeID(s)), final.Name(graph.NodeID(d)))
				if err != nil {
					t.Fatal(err)
				}
				eng := tp.Current().engine
				_ = eng
				got, err := v2.engine.RouteCtx(context.Background(), cold, graph.NodeID(s), final.Name(graph.NodeID(d)))
				if err != nil {
					t.Fatal(err)
				}
				if want.Delivered != got.Delivered || want.Cost != got.Cost || want.Hops != got.Hops || want.MaxHeaderBits != got.MaxHeaderBits {
					t.Fatalf("%s %d→%d: hot %+v cold %+v", kind, s, d, want, got)
				}
			}
		}
	}
}

// TestTopologyVersionZeroFromMetric: version 0 builds from the rows it
// is given, and the paper kind keeps those very rows as its metric. A
// row count that does not match the graph is refused, and the topology
// drops its reference to the rows once version 0 is built.
func TestTopologyVersionZeroFromMetric(t *testing.T) {
	g := testGraph(t, 64, 23)
	all := sssp.AllPairs(g)
	cfgs := []schemes.Config{{Kind: schemes.KindPaper, K: 2, Seed: 1}}
	if _, err := NewTopology(context.Background(), g, TopologyOptions{Configs: cfgs, Metric: all[:63]}); err == nil {
		t.Fatal("a metric missing a row was accepted")
	}
	tp, err := NewTopology(context.Background(), g, TopologyOptions{Configs: cfgs, Metric: all})
	if err != nil {
		t.Fatal(err)
	}
	if tp.opts.Metric != nil {
		t.Fatal("the topology kept version 0's rows")
	}
	rows := tp.Current().Scheme(schemes.KindPaper).(*core.Scheme).Decomposition().Results()
	if len(rows) != len(all) || &rows[0] != &all[0] {
		t.Fatal("version 0's paper scheme does not hold the given rows")
	}
}

func TestTopologyRebuildNoPendingIsNoop(t *testing.T) {
	g := testGraph(t, 40, 19)
	tp := testTopology(t, g, schemes.KindFullTable)
	v0 := tp.Current()
	v, pause, err := tp.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v != v0 || pause != 0 {
		t.Fatalf("no-op rebuild: v=%v pause=%v", v.ID, pause)
	}
	if got := tp.Swapper().Swaps(); got != 0 {
		t.Fatalf("no-op rebuild swapped %d times", got)
	}
}

func TestTopologyPreSwapFailureKeepsServing(t *testing.T) {
	g := testGraph(t, 40, 23)
	fail := false
	cfgs := []schemes.Config{{Kind: schemes.KindFullTable, K: 2, Seed: 1}}
	boom := errors.New("boom")
	tp, err := NewTopology(context.Background(), g, TopologyOptions{Configs: cfgs, PreSwap: func(v *Version) error {
		if fail {
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Apply(Mutation{Op: OpSetWeight, U: g.Name(0), V: firstNeighborName(g, 0), W: 2}); err != nil {
		t.Fatal(err)
	}
	fail = true
	if _, _, err := tp.Rebuild(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("rebuild error = %v", err)
	}
	if tp.Current().ID != 0 {
		t.Fatal("failed rebuild swapped anyway")
	}
	if tp.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (range must stay pending)", tp.Pending())
	}
	fail = false
	v, _, err := tp.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 1 || tp.Pending() != 0 {
		t.Fatalf("retry: v=%d pending=%d", v.ID, tp.Pending())
	}
}

// TestStagedDoesNotWaitForStage: Staged answers while a Stage holds
// the build path (here: parked in PreSwap), because health and stats
// reads call it during every coordinated cut-over.
func TestStagedDoesNotWaitForStage(t *testing.T) {
	g := testGraph(t, 40, 23)
	entered, release := make(chan struct{}), make(chan struct{})
	cfgs := []schemes.Config{{Kind: schemes.KindFullTable, K: 2, Seed: 1}}
	tp, err := NewTopology(context.Background(), g, TopologyOptions{Configs: cfgs, PreSwap: func(v *Version) error {
		if v.ID == 1 {
			close(entered)
			<-release
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Apply(Mutation{Op: OpSetWeight, U: g.Name(0), V: firstNeighborName(g, 0), W: 2}); err != nil {
		t.Fatal(err)
	}
	staged := make(chan *Version, 1)
	go func() {
		v, err := tp.Stage(context.Background())
		if err != nil {
			t.Error(err)
		}
		staged <- v
	}()
	<-entered
	read := make(chan *Version, 1)
	go func() { read <- tp.Staged() }()
	select {
	case v := <-read:
		if v != nil {
			t.Fatalf("mid-stage Staged() = version %d, want nil", v.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Staged() blocked behind a stage in progress")
	}
	close(release)
	v := <-staged
	if v == nil || tp.Staged() != v {
		t.Fatal("after the stage: Staged() does not return the staged version")
	}
	if _, _, err := tp.Commit(v.ID); err != nil {
		t.Fatal(err)
	}
	if tp.Staged() != nil || tp.Current() != v {
		t.Fatalf("after commit: staged %t, serving %d, want nothing staged and %d serving",
			tp.Staged() != nil, tp.Current().ID, v.ID)
	}
}

func firstNeighborName(g *graph.Graph, u graph.NodeID) uint64 {
	var name uint64
	g.Neighbors(u, func(e graph.Edge) bool {
		name = g.Name(e.To)
		return false
	})
	return name
}

func TestVersionRouteErrors(t *testing.T) {
	g := testGraph(t, 32, 29)
	tp := testTopology(t, g, schemes.KindFullTable)
	v := tp.Current()
	if _, err := v.Route(context.Background(), "nope", g.Name(0), g.Name(1)); !errors.Is(err, routeerr.ErrUnknownKind) {
		t.Fatalf("unknown kind: %v", err)
	}
	if _, err := v.Route(context.Background(), schemes.KindFullTable, 0xdead_dead_dead, g.Name(1)); !errors.Is(err, routeerr.ErrUnknownName) {
		t.Fatalf("unknown source: %v", err)
	}
	res, err := v.Route(context.Background(), schemes.KindFullTable, g.Name(0), 0xdead_dead_dead)
	if err != nil || res.Delivered {
		t.Fatalf("unknown destination: res=%+v err=%v", res, err)
	}
}

func TestSwapperHooksAndPauseStats(t *testing.T) {
	v0 := &Version{ID: 0}
	s := NewSwapper(v0)
	var hookSaw *Version
	s.OnSwap(func(v *Version) { hookSaw = v })
	v1 := &Version{ID: 1}
	pause := s.Swap(v1)
	if hookSaw != v1 {
		t.Fatal("hook did not run with the new version")
	}
	if s.Current() != v1 || s.Swaps() != 1 {
		t.Fatalf("current=%v swaps=%d", s.Current().ID, s.Swaps())
	}
	if s.LastPause() != pause || s.MaxPause() < pause {
		t.Fatalf("pause stats: last=%v max=%v want %v", s.LastPause(), s.MaxPause(), pause)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	g := testGraph(t, 56, 31)
	tp := testTopology(t, g, schemes.KindFullTable, schemes.KindTZ)
	dir := t.TempDir()
	st, err := NewStore(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(tp.Current()); err != nil {
		t.Fatal(err)
	}
	muts, err := GenerateTrace(g, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Apply(muts...); err != nil {
		t.Fatal(err)
	}
	v1, _, err := tp.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(v1); err != nil {
		t.Fatal(err)
	}
	ms, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Lineage.Version != 0 || ms[1].Lineage.Version != 1 {
		t.Fatalf("manifests: %+v", ms)
	}
	if ms[1].Lineage.MutTo != 20 || ms[1].Lineage.Parent != 0 {
		t.Fatalf("v1 lineage: %+v", ms[1].Lineage)
	}
	// tz is not persistable: listed as a kind, absent from Persisted.
	if !reflect.DeepEqual(ms[1].Kinds, []string{schemes.KindFullTable, schemes.KindTZ}) {
		t.Fatalf("kinds: %v", ms[1].Kinds)
	}
	if !reflect.DeepEqual(ms[1].Persisted, []string{schemes.KindFullTable}) {
		t.Fatalf("persisted: %v", ms[1].Persisted)
	}
	g1, err := st.LoadGraph(1)
	if err != nil {
		t.Fatal(err)
	}
	if graphFingerprint(g1) != graphFingerprint(v1.Graph()) {
		t.Fatal("stored graph diverged")
	}
	p, err := st.LoadPayload(1, schemes.KindFullTable)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != codec.KindFullTable || p.Lineage == nil || p.Lineage.Version != 1 {
		t.Fatalf("payload: kind=%s lineage=%+v", p.Kind, p.Lineage)
	}
	if p.Lineage.BuildWallNanos != int64(v1.BuildWall) {
		t.Fatalf("lineage build wall %d != %d", p.Lineage.BuildWallNanos, int64(v1.BuildWall))
	}
	// No stray temp files: the manifest commit is rename-based.
	if tmps, _ := filepath.Glob(filepath.Join(st.Dir(), "*.tmp")); len(tmps) != 0 {
		t.Fatalf("leftover temp files: %v", tmps)
	}
	// One store records one chain: re-committing an existing version
	// id (a daemon restarted against a used directory) must refuse
	// rather than silently interleave snapshots from unrelated chains.
	if err := st.Save(v1); err == nil {
		t.Fatal("Save overwrote a committed version")
	}
	if ms2, err := st.List(); err != nil || len(ms2) != 2 {
		t.Fatalf("refused save damaged the store: %v %v", ms2, err)
	}
}
