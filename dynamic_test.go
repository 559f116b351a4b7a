package compactroute

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

func dynNet(tb testing.TB, n int, seed uint64) *Network {
	tb.Helper()
	net := RandomNetwork(seed, n, 8/float64(n), UniformWeights(1, 8))
	if !net.Graph().Connected() {
		tb.Fatalf("test network not connected (n=%d seed=%d)", n, seed)
	}
	return net
}

func TestDynamicApplyRebuildRoute(t *testing.T) {
	net := dynNet(t, 96, 2)
	d, err := NewDynamic(net, DynamicOptions{
		Configs: []Config{{Kind: KindFullTable}, {Kind: KindTZ, K: 2, Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := d.Version(); v.ID != 0 || len(v.Kinds) != 2 {
		t.Fatalf("v0 = %+v", v)
	}
	res, err := d.RouteByNameCtx(context.Background(), KindFullTable, net.Graph().Name(0), net.Graph().Name(1))
	if err != nil || !res.Delivered || !res.MetricKnown {
		t.Fatalf("v0 route: %+v err=%v", res, err)
	}
	if res.Stretch() != 1 {
		t.Fatalf("fulltable stretch %v", res.Stretch())
	}
	if _, err := d.RouteByNameCtx(context.Background(), "nope", 1, 2); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind: %v", err)
	}

	muts, err := GenerateMutations(net, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(muts...); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 30 {
		t.Fatalf("pending = %d", d.Pending())
	}
	ch, stop := d.Watch(4)
	defer stop()
	vi, err := d.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vi.ID != 1 || vi.MutTo != 30 || vi.BuildWall <= 0 {
		t.Fatalf("v1 = %+v", vi)
	}
	select {
	case got := <-ch:
		if got.ID != 1 {
			t.Fatalf("watcher saw %+v", got)
		}
	case <-time.After(time.Second):
		t.Fatal("watcher never notified")
	}
	// The new version serves with its metric and the new names.
	for _, m := range muts {
		if m.Op != OpAddNode {
			continue
		}
		res, err := d.RouteByNameCtx(context.Background(), KindFullTable, m.Name, net.Graph().Name(0))
		if err != nil || !res.Delivered || !res.MetricKnown {
			t.Fatalf("route from joined node %#x: %+v err=%v", m.Name, res, err)
		}
	}
	swaps, last, max := d.SwapStats()
	if swaps != 1 || last <= 0 || max < last {
		t.Fatalf("swap stats: %d %v %v", swaps, last, max)
	}
	// A rebuild with nothing pending swaps nothing and notifies nobody.
	vi2, err := d.Rebuild(context.Background())
	if err != nil || vi2.ID != 1 {
		t.Fatalf("no-op rebuild: %+v err=%v", vi2, err)
	}
	if swaps, _, _ := d.SwapStats(); swaps != 1 {
		t.Fatalf("no-op rebuild swapped (swaps=%d)", swaps)
	}
}

func TestDynamicSnapshotDir(t *testing.T) {
	net := dynNet(t, 64, 3)
	dir := filepath.Join(t.TempDir(), "snaps")
	d, err := NewDynamic(net, DynamicOptions{
		Configs:     []Config{{Kind: KindFullTable}},
		SnapshotDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	muts, err := GenerateMutations(net, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(muts...); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Version 1's persisted fulltable loads through the plain facade
	// and routes (lineage is provenance, not payload).
	f := filepath.Join(dir, "v00000001.fulltable.crsc")
	s, err := loadSchemeFile(f)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Network().Graph()
	res, err := s.RouteByName(g.Name(0), g.Name(1))
	if err != nil || !res.Delivered {
		t.Fatalf("loaded snapshot route: %+v err=%v", res, err)
	}
	if res.Cost != mustRoute(t, d, KindFullTable, g.Name(0), g.Name(1)).Cost {
		t.Fatal("snapshot and live version disagree")
	}
}

func loadSchemeFile(path string) (*Scheme, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func mustRoute(t *testing.T, d *Dynamic, kind string, src, dst uint64) Result {
	t.Helper()
	res, err := d.RouteByNameCtx(context.Background(), kind, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDynamicSwapHammer is the -race concurrency satellite: routing
// hammers RouteByNameCtx (directly and through a purging serve.Pool
// registered via OnSwap) while the main goroutine churns mutations
// and rebuilds. It asserts no torn reads (every result is internally
// consistent and every route delivers), no stale ErrUnknownName for
// names that exist in every version, and no goroutine leaks.
func TestDynamicSwapHammer(t *testing.T) {
	base := runtime.NumGoroutine()
	net := dynNet(t, 72, 11)
	d, err := NewDynamic(net, DynamicOptions{
		Configs: []Config{{Kind: KindFullTable}, {Kind: KindLandmarkChain, K: 2, Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	baseN := g.N() // base names exist in every version (nodes are never removed)

	rebuilds := 4
	if testing.Short() {
		rebuilds = 2
	}
	muts, err := GenerateMutations(net, rebuilds*12, 13)
	if err != nil {
		t.Fatal(err)
	}

	stopRoute := make(chan struct{})
	var routed atomic.Uint64
	var wg sync.WaitGroup
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kinds := []string{KindFullTable, KindLandmarkChain}
			for i := 0; ; i++ {
				select {
				case <-stopRoute:
					return
				default:
				}
				src := g.Name(NodeID((w*31 + i) % baseN))
				dst := g.Name(NodeID((w*17 + i*7 + 1) % baseN))
				res, err := d.RouteByNameCtx(context.Background(), kinds[i%2], src, dst)
				if err != nil {
					report(err)
					return
				}
				if src != dst && !res.Delivered {
					report(errorsNewf("route %#x→%#x not delivered", src, dst))
					return
				}
				if res.Delivered && src != dst && (res.Cost <= 0 || res.Hops <= 0) {
					report(errorsNewf("torn result %+v", res))
					return
				}
				routed.Add(1)
			}
		}(w)
	}

	for r := 0; r < rebuilds; r++ {
		if _, err := d.Apply(muts[r*12 : (r+1)*12]...); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Rebuild(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Let routing observe the final version before stopping.
	time.Sleep(20 * time.Millisecond)
	close(stopRoute)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if routed.Load() == 0 {
		t.Fatal("no routes completed during churn")
	}
	swaps, _, maxPause := d.SwapStats()
	if swaps != uint64(rebuilds) {
		t.Fatalf("swaps = %d, want %d", swaps, rebuilds)
	}
	if maxPause <= 0 {
		t.Fatalf("max pause = %v", maxPause)
	}
	// No goroutine leaks: everything the rebuilds spawned has exited.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at start, %d after churn", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func errorsNewf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// TestDynamicVersionZeroReusesMetric: over a network that has its
// metric, version 0 builds from that metric. Its schemes equal those
// of a version 0 over the same graph without one (WrapGraphLazy),
// route for route, in table bits and in header bits, and both carry
// true stretch. Its paper scheme holds the network's own rows, so the
// shard runs no second APSP and keeps no second copy; the lazy
// network computes its rows once and keeps them, and its paper scheme
// holds those.
func TestDynamicVersionZeroReusesMetric(t *testing.T) {
	warm := dynNet(t, 128, 3)
	lazy := WrapGraphLazy(warm.Graph())
	kinds := []string{KindPaper, KindTZ}
	opts := DynamicOptions{Configs: []Config{
		{Kind: KindPaper, K: 3, Seed: 5, SFactor: 0.25},
		{Kind: KindTZ, K: 2, Seed: 5},
	}}
	reused, err := NewDynamic(warm, opts)
	if err != nil {
		t.Fatal(err)
	}
	computed, err := NewDynamic(lazy, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.HasMetric() {
		t.Fatal("version 0 over a lazy network left it without the metric it built from")
	}

	rows, lazyRows := warm.metric(), lazy.metric()
	shared := reused.Scheme(KindPaper).Core().Decomposition().Results()
	own := computed.Scheme(KindPaper).Core().Decomposition().Results()
	if len(shared) != len(rows) || len(own) != len(rows) || len(lazyRows) != len(rows) {
		t.Fatalf("paper rows: %d reused, %d computed, %d on the lazy network; the warm network has %d",
			len(shared), len(own), len(lazyRows), len(rows))
	}
	for v := range rows {
		if shared[v] != rows[v] {
			t.Fatalf("row %d: version 0's paper scheme holds a copy, not the network's row", v)
		}
		if own[v] != lazyRows[v] || own[v] == rows[v] {
			t.Fatalf("row %d: the lazy network's version 0 does not hold the lazy network's own row", v)
		}
	}

	g := warm.Graph()
	for _, kind := range kinds {
		a, b := reused.Scheme(kind), computed.Scheme(kind)
		if a.MaxTableBits() != b.MaxTableBits() || a.MeanTableBits() != b.MeanTableBits() {
			t.Fatalf("%s: table bits %d/%v reused, %d/%v computed",
				kind, a.MaxTableBits(), a.MeanTableBits(), b.MaxTableBits(), b.MeanTableBits())
		}
		for q := 0; q < 400; q++ {
			src, dst := g.Name(NodeID(q%g.N())), g.Name(NodeID((q*37+11)%g.N()))
			got, want := mustRoute(t, reused, kind, src, dst), mustRoute(t, computed, kind, src, dst)
			if got != want || !got.MetricKnown {
				t.Fatalf("%s %#x→%#x: reused %+v, computed %+v", kind, src, dst, got, want)
			}
		}
	}
}

// TestDynamicMetricOncePerVersion: every version computes its metric
// once, with no option asked. Version 0 over a lazy network and a
// rebuilt version both build from rows their network then holds — the
// paper scheme's rows are the network's own — so answers carry the
// metric, and the rebuilt version routes exactly as a cold build of
// the replayed topology.
func TestDynamicMetricOncePerVersion(t *testing.T) {
	net := dynNet(t, 128, 3)
	lazy := WrapGraphLazy(net.Graph())
	cfgs := []Config{{Kind: KindPaper, K: 3, Seed: 5, SFactor: 0.25}, {Kind: KindTZ, K: 2, Seed: 5}}
	d, err := NewDynamic(lazy, DynamicOptions{Configs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	sameRows := func(version string) {
		t.Helper()
		rows := d.Network().metric()
		shared := d.Scheme(KindPaper).Core().Decomposition().Results()
		if len(rows) != d.Network().N() || len(shared) != len(rows) {
			t.Fatalf("%s: network has %d rows, the paper scheme %d, for %d nodes", version, len(rows), len(shared), d.Network().N())
		}
		for v := range rows {
			if shared[v] != rows[v] {
				t.Fatalf("%s: row %d of the paper scheme is not the network's", version, v)
			}
		}
	}
	sameRows("version 0")
	if !lazy.HasMetric() {
		t.Fatal("version 0 over a lazy network left it without the metric it built from")
	}

	muts, err := GenerateMutations(net, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(muts...); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	sameRows("version 1")

	cold, err := ReplayNetwork(net, muts)
	if err != nil {
		t.Fatal(err)
	}
	g := cold.Graph()
	for _, cfg := range cfgs {
		want, err := Build(cold, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Scheme(cfg.Kind); got.MaxTableBits() != want.MaxTableBits() || got.MeanTableBits() != want.MeanTableBits() {
			t.Fatalf("%s: table bits %d/%v rebuilt, %d/%v cold", cfg.Kind, got.MaxTableBits(), got.MeanTableBits(), want.MaxTableBits(), want.MeanTableBits())
		}
		for q := 0; q < 300; q++ {
			src, dst := g.Name(NodeID(q%g.N())), g.Name(NodeID((q*37+11)%g.N()))
			got := mustRoute(t, d, cfg.Kind, src, dst)
			w, err := want.RouteByName(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if got != w || !got.MetricKnown {
				t.Fatalf("%s %#x→%#x: rebuilt %+v, cold %+v", cfg.Kind, src, dst, got, w)
			}
		}
	}
}

// TestDynamicCanceledRebuildKeepsServing: a rebuild whose metric sweep
// is canceled mid-way, or whose context is canceled before it starts,
// returns the wrapped context error, leaves no worker running, and
// leaves the old version serving with the mutations still pending; the
// next rebuild absorbs them.
func TestDynamicCanceledRebuildKeepsServing(t *testing.T) {
	net := dynNet(t, 96, 6)
	d, err := NewDynamic(net, DynamicOptions{Configs: []Config{{Kind: KindPaper, K: 2, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	muts, err := GenerateMutations(net, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(muts...); err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	src, dst := g.Name(0), g.Name(NodeID(g.N()-1))
	want := mustRoute(t, d, KindPaper, src, dst)
	before := runtime.NumGoroutine()
	for _, k := range []int32{1, 5} {
		ctx, cancel := cancelAt(k)
		_, err := d.Rebuild(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("rebuild canceled at ctx check %d: got %v, want wrapped context.Canceled", k, err)
		}
		if v := d.Version(); v.ID != 0 || d.Pending() != uint64(len(muts)) {
			t.Fatalf("after a canceled rebuild: serving %+v with %d pending", v, d.Pending())
		}
		if got := mustRoute(t, d, KindPaper, src, dst); got != want {
			t.Fatalf("after a canceled rebuild the old version routes %+v, want %+v", got, want)
		}
	}
	waitGoroutines(t, before)
	if v, err := d.Rebuild(context.Background()); err != nil || v.ID != 1 || d.Pending() != 0 {
		t.Fatalf("rebuild after the canceled ones: %+v, %d pending, err %v", v, d.Pending(), err)
	}
}

// TestDynamicReleasesVersionZeroNetwork: the handle does not pin the
// network it was built over. Version 0 holds it while it serves, and
// the first swap releases it, graph and Θ(n²) metric together.
func TestDynamicReleasesVersionZeroNetwork(t *testing.T) {
	d, base, muts := func() (*Dynamic, weak.Pointer[Network], []Mutation) {
		net := dynNet(t, 64, 4)
		d, err := NewDynamic(net, DynamicOptions{Configs: []Config{{Kind: KindPaper, K: 2, Seed: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		muts, err := GenerateMutations(net, 5, 9)
		if err != nil {
			t.Fatal(err)
		}
		return d, weak.Make(net), muts
	}()
	runtime.GC()
	if base.Value() == nil {
		t.Fatal("version 0's network was collected while version 0 serves")
	}
	if _, err := d.Apply(muts...); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if base.Value() != nil {
		t.Fatal("version 0's network outlived the first swap")
	}
	runtime.KeepAlive(d)
}
