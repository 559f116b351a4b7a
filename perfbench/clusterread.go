package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"compactroute"
	"compactroute/client"
	"compactroute/internal/cluster"
	"compactroute/internal/serve"
	"compactroute/internal/server"
	"compactroute/internal/stats"
	"compactroute/internal/workload"
)

// readers is the number of client goroutines (and connections) of the
// closed-loop workload: one per core of the reference machine.
const readers = 2

// tier is a front-door over two shards, each on its own loopback
// listener, as routefront and two routed processes serve them.
type tier struct {
	shards []*shard
	front  *cluster.Cluster
	hs     *http.Server
	url    string
	served chan error
}

func startTier(ctx context.Context, cfg server.Config, wrapShard, wrapFront func(http.Handler) http.Handler) (*tier, error) {
	t := &tier{}
	var urls []string
	for range 2 {
		s, err := startShard(ctx, cfg, wrapShard)
		if err != nil {
			t.close()
			return nil, err
		}
		t.shards = append(t.shards, s)
		urls = append(urls, s.url)
	}
	front, err := cluster.New(cluster.Options{Shards: urls, Logf: quiet})
	if err != nil {
		t.close()
		return nil, err
	}
	front.Start()
	t.front = front
	h := front.Handler()
	if wrapFront != nil {
		h = wrapFront(h)
	}
	if t.hs, t.url, t.served, err = listen(h); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *tier) close() error {
	var err error
	if t.hs != nil {
		err = shutdown(t.hs, t.served)
	}
	if t.front != nil {
		t.front.Close()
	}
	for _, s := range t.shards {
		if serr := s.close(); err == nil {
			err = serr
		}
	}
	return err
}

// poolStats sums the shards' pool counters and takes the longest swap
// pause either has seen.
func (t *tier) poolStats() (sum serve.Stats, maxPauseNs int64) {
	for _, s := range t.shards {
		st := s.srv.Stats()
		sum.Requests += st.Requests
		sum.Hits += st.Hits
		sum.Purges += st.Purges
		sum.Coalesced += st.Coalesced
		sum.Rejected += st.Rejected
		if st.Dynamic != nil {
			maxPauseNs = max(maxPauseNs, st.Dynamic.MaxPauseNs)
		}
	}
	return sum, maxPauseNs
}

// runClusterRead drives a front-door over two shards with a closed
// loop of uniform reads on two connections; about half of the pairs
// cross shards and scatter. It is the only workload through the
// front-door, and after the timed reads it times coordinated write
// cycles (mutation fan-out plus two-phase cut-over).
func runClusterRead(ctx context.Context, c runConfig) (*result, error) {
	r := newResult("cluster-read", c)
	sz := c.sizes
	scfg := server.Config{Scheme: compactroute.KindPaper, N: sz.shardN, Seed: topoSeed, Logf: quiet}
	var shardTimes, frontTimes *handlerTimes
	var wrapShard, wrapFront func(http.Handler) http.Handler
	if c.traced {
		shardTimes, frontTimes = newHandlerTimes(), newHandlerTimes()
		wrapShard, wrapFront = shardTimes.wrap, frontTimes.wrap
	}

	var setups []timing
	var t *tier
	for rep := range sz.setupReps {
		runtime.GC()
		steal := startSteal()
		t0 := time.Now()
		tt, err := startTier(ctx, scfg, wrapShard, wrapFront)
		if err != nil {
			return nil, err
		}
		if err := waitReady(ctx, client.New(tt.url)); err != nil {
			tt.close()
			return nil, err
		}
		setups = append(setups, timing{time.Since(t0).Seconds(), steal.share()})
		if rep < sz.setupReps-1 {
			if err := tt.close(); err != nil {
				return nil, err
			}
			continue
		}
		t = tt
	}
	defer t.close()

	g := t.shards[0].srv.Scheme().Network().Graph()

	type reader struct {
		c      *client.Client
		force  *forceTrace
		qs     *workload.Stream
		lat    *reservoir
		hops   int64
		ok     int64
		reads  int64
		failed int64
		tseq   int64 // forced trace IDs issued
	}
	rs := make([]*reader, readers)
	for w := range rs {
		qs, err := workload.New(workload.Uniform, g, workload.Options{Seed: c.seed, Fork: uint64(w)})
		if err != nil {
			return nil, err
		}
		cl, force := newClient(t.url)
		rs[w] = &reader{c: cl, force: force, qs: qs}
	}
	// read does one closed-loop read and returns its client call time.
	read := func(rd *reader) (int64, error) {
		q := rd.qs.Next()
		t0 := time.Now()
		res, err := rd.c.RouteByName(ctx, q.SrcName, q.DstName)
		ns := time.Since(t0).Nanoseconds()
		switch {
		case err != nil:
			r.fail("read %#x→%#x: %v", q.SrcName, q.DstName, err)
		case !res.Delivered:
			r.fail("read %#x→%#x: not delivered", q.SrcName, q.DstName)
			err = errNotDelivered
		default:
			rd.hops += int64(res.Hops)
			rd.ok++
		}
		return ns, err
	}
	// loop runs every reader for count reads each, or until deadline
	// when count is 0, into a fresh latency sample per reader of the
	// given capacity, waits for them, and returns the union of the
	// samples and the reads completed; with ids set it forces a trace
	// on each read and records the IDs and call times.
	loop := func(count int, deadline time.Time, capacity int, ids [][]string, calls [][]int64) (int64, *reservoir) {
		trace := ids != nil
		var wg sync.WaitGroup
		var before int64
		for w, rd := range rs {
			before += rd.ok
			rd.lat = newReservoir(capacity, c.seed+uint64(w))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for done := 0; count <= 0 || done < count; done++ {
					if trace {
						rd.tseq++
						rd.force.id = fmt.Sprintf("%s%d-%d", idPrefix, w, rd.tseq)
					}
					ns, err := read(rd)
					if trace {
						ids[w] = append(ids[w], rd.force.id)
						calls[w] = append(calls[w], ns)
						rd.force.id = ""
					}
					if err != nil {
						rd.failed++
						ns = failedNs
					}
					rd.reads++
					rd.lat.add(ns)
					if count <= 0 && !time.Now().Before(deadline) {
						return
					}
				}
			}()
		}
		wg.Wait()
		lat := newReservoir(0, 0)
		var ok int64
		for _, rd := range rs {
			ok += rd.ok
			lat.merge(rd.lat)
			rd.lat = nil
		}
		return ok - before, lat
	}

	loop(0, time.Now().Add(sz.warmup), 1, nil, nil)
	for _, rd := range rs {
		rd.reads, rd.failed, rd.hops, rd.ok = 0, 0, 0, 0
	}
	runtime.GC()

	stBefore := t.front.Stats()
	pool0, _ := t.poolStats()
	var rt runtimeDelta
	var samples []layerSample
	missing := 0
	steal := startSteal()
	var rounds []round
	if !c.traced {
		rt.start()
		rounds = timeRounds(sz.rounds, c.timed, func(deadline time.Time) (int64, *reservoir) {
			return loop(0, deadline, 1<<14, nil, nil)
		})
		var n int64
		for _, rd := range rs {
			n += rd.reads
		}
		rt.stop(n)
	} else {
		// Alternate untraced and traced windows of equal size; after a
		// traced window each reader fetches its traces.
		untraced, traced := newReservoir(0, 0), newReservoir(0, 0)
		deadline := time.Now().Add(c.timed)
		per := max(sz.window/readers, 1)
		for k := 0; time.Now().Before(deadline) || k%2 == 1; k++ {
			if k%2 == 0 {
				rt.start()
				_, lat := loop(per, deadline, per, nil, nil)
				rt.stop(int64(per * readers))
				untraced.merge(lat)
				continue
			}
			ids := make([][]string, readers)
			calls := make([][]int64, readers)
			_, lat := loop(per, deadline, per, ids, calls)
			traced.merge(lat)
			for w, rd := range rs {
				m, err := collect(ctx, rd.c, ids[w], calls[w], frontTimes, shardTimes, &samples)
				if err != nil {
					return nil, err
				}
				missing += m
			}
		}
		r.Reads.latency = untraced.summary()
		r.Metrics["obs.traced_p50_ratio"] = ratio(traced.p50(), untraced.p50())
		r.Notes = layerReport(samples, r.Metrics)
		if missing > 0 {
			r.Notes = append(r.Notes, fmt.Sprintf("%d traced reads had no stored trace (ring eviction)", missing))
		}
		samples = nil
	}
	r.Env.StealShare = steal.share()
	stAfter := t.front.Stats()
	pool1, _ := t.poolStats()
	heap := liveHeapMiB()

	var reads, failed, hops, okReads int64
	for _, rd := range rs {
		reads += rd.reads
		failed += rd.failed
		hops += rd.hops
		okReads += rd.ok
	}

	// In-process reference: the shards' topology and scheme, built
	// independently of them (after the heap reading, which it would
	// inflate).
	t0 := time.Now()
	net, err := server.BuildNetwork(scfg)
	if err != nil {
		return nil, err
	}
	apsp := time.Since(t0)
	t0 = time.Now()
	ref, err := compactroute.BuildStream(ctx, net, paperConfig)
	if err != nil {
		return nil, err
	}
	build := time.Since(t0)

	// Gate: a fixed sample served through the front-door equals the
	// in-process reference walk, never shorter than the shortest path,
	// and the tier never skewed, failed over or ejected a shard.
	pairs, err := queryBuffer(workload.Uniform, g, topoSeed, stretchFork, sz.stretchPairs)
	if err != nil {
		return nil, err
	}
	var st stats.Stretch
	for _, q := range pairs {
		got, err := rs[0].c.RouteByName(ctx, q.SrcName, q.DstName)
		want, werr := ref.RouteByNameCtx(ctx, q.SrcName, q.DstName)
		switch {
		case err != nil || werr != nil:
			r.fail("sample %#x→%#x: served err %v, reference err %v", q.SrcName, q.DstName, err, werr)
		case !got.Delivered || got.Cost != want.Cost || got.Hops != want.Hops || got.ShortestCost != want.ShortestCost:
			r.fail("sample %#x→%#x: served delivered %v cost %v hops %d shortest %v, reference cost %v hops %d shortest %v",
				q.SrcName, q.DstName, got.Delivered, got.Cost, got.Hops, got.ShortestCost, want.Cost, want.Hops, want.ShortestCost)
		case got.Cost < got.ShortestCost*(1-1e-9):
			r.fail("sample %#x→%#x: cost %v below shortest %v", q.SrcName, q.DstName, got.Cost, got.ShortestCost)
		default:
			st.Add(got.Cost, got.ShortestCost)
		}
	}

	// Write cycles after the reads: a mutation batch fanned out by the
	// front-door, then a coordinated two-phase cut-over.
	trace, err := compactroute.GenerateMutations(net, sz.batch*sz.writes, c.seed)
	if err != nil {
		return nil, err
	}
	var rebuilds []timing
	var mutates, builds []float64
	var wfail int64
	wc := client.New(t.url)
	for j := range sz.writes {
		// Each cycle starts from a collected heap, so that one cycle's
		// garbage does not land its collection in the next one.
		runtime.GC()
		steal := startSteal()
		t0 := time.Now()
		_, err := wc.Mutate(ctx, trace[j*sz.batch:(j+1)*sz.batch]...)
		t1 := time.Now()
		if err != nil {
			r.fail("write cycle %d: mutate: %v", j, err)
			wfail++
			break
		}
		v, err := wc.RebuildWait(ctx)
		if err != nil {
			r.fail("write cycle %d: rebuild: %v", j, err)
			wfail++
			break
		}
		rebuilds = append(rebuilds, timing{time.Since(t0).Seconds(), steal.share()})
		mutates = append(mutates, float64(t1.Sub(t0).Microseconds())/1e3)
		builds = append(builds, v.BuildWall.Seconds())
		for _, s := range t.shards {
			if sv, _ := s.srv.Version(); sv.ID != v.ID || sv.MutTo != uint64((j+1)*sz.batch) {
				r.fail("write cycle %d: shard %s serves version %d (mutations ..%d), cut-over said %d",
					j, s.url, sv.ID, sv.MutTo, v.ID)
			}
		}
	}
	stFinal := t.front.Stats()
	if stFinal.SkewObserved != 0 || stFinal.Failovers != 0 || stFinal.Ejections != 0 {
		r.fail("front-door saw %d skews, %d failovers, %d ejections; want none",
			stFinal.SkewObserved, stFinal.Failovers, stFinal.Ejections)
	}

	writes := int64(len(rebuilds)) + wfail
	r.Attempted, r.Failed = reads+writes, failed+wfail
	if !c.traced {
		r.Rounds, r.Reads = rounds, summarize(rounds)
		if !r.Reads.P99OK {
			r.fail("too few reads in a round for a p99 (%d sampled)", r.Reads.Sample)
		}
	}
	m := r.Metrics
	m["setup_s"] = steadyMedian(setups)
	m["route_qps"] = r.Reads.QPS
	m["route_p50_us"] = r.Reads.P50us
	m["route_p99_us"] = r.Reads.P99us
	m["ok_ratio"] = ratio(float64(r.Attempted-r.Failed), float64(r.Attempted))
	m["rebuild_s"] = steadyMedian(rebuilds)
	m["stretch_mean"] = st.Mean()
	m["stretch_max"] = st.Max()
	m["table_bits_max"] = float64(ref.MaxTableBits())
	m["heap_live_mib"] = heap

	meanBits := ref.MeanTableBits()
	m["sssp.apsp_s"] = apsp.Seconds()
	m["schemes.build_s"] = build.Seconds()
	m["sim.hops_mean"] = float64(hops) / float64(max(okReads, 1))
	m["core.table_bits_mean"] = meanBits
	// Each shard holds one copy of the scheme.
	m["core.heap_per_table_byte"] = heap * (1 << 20) / (2 * float64(g.N()) * meanBits / 8)
	m["serve.hit_ratio"] = ratio(float64(pool1.Hits-pool0.Hits), float64(pool1.Requests-pool0.Requests))
	m["serve.coalesced"] = float64(pool1.Coalesced - pool0.Coalesced)
	m["serve.rejected"] = float64(pool1.Rejected - pool0.Rejected)
	if routes := stAfter.Routes - stBefore.Routes; routes > 0 {
		scattered := stAfter.Scattered - stBefore.Scattered
		proxied := stAfter.Proxied - stBefore.Proxied
		fo := stAfter.Failovers - stBefore.Failovers
		m["cluster.scatter_ratio"] = float64(scattered) / float64(routes)
		m["cluster.shard_calls_per_route"] = float64(proxied+2*scattered+fo) / float64(routes)
	}
	m["cluster.failovers"] = float64(stAfter.Failovers - stBefore.Failovers)
	m["cluster.skews"] = float64(stAfter.SkewObserved - stBefore.SkewObserved)
	m["dynamic.mutate_ms_p50"] = median(mutates)
	m["dynamic.build_s_p50"] = median(builds)
	// The caches are purged when a cut-over swaps a version in, so
	// purges are counted over the write cycles.
	pool2, pause := t.poolStats()
	m["serve.purges"] = float64(pool2.Purges - pool1.Purges)
	m["dynamic.swap_pause_us_max"] = float64(pause) / 1e3
	rt.report(m)
	r.Notes = append(r.Notes, fmt.Sprintf("set-ups (s, steal) %v; write cycles %v", setups, rebuilds))
	fillLayers(m)
	return r, nil
}
