package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"compactroute/client"
	"compactroute/internal/obs"
)

// idPrefix marks the trace IDs the benchmark forces, so its
// middleware ignores requests the serving tier sampled on its own.
const idPrefix = "pb-"

// forceTrace is a client transport that forces a trace ID onto every
// request while id is set — the X-Compactroute-Trace header the
// serving tier honours past its sampling. One per client goroutine.
type forceTrace struct {
	base http.RoundTripper
	id   string
}

func (f *forceTrace) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.id == "" {
		return f.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(obs.Header, f.id)
	return f.base.RoundTrip(req)
}

// handlerTimes is middleware around a tier's Handler() that times
// every forced-trace route request, keyed by its trace ID.
type handlerTimes struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

func newHandlerTimes() *handlerTimes { return &handlerTimes{d: map[string]time.Duration{}} }

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.Header)
		if !strings.HasPrefix(id, idPrefix) || r.URL.Path != "/v1/route" {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		h.mu.Lock()
		h.d[id] = d
		h.mu.Unlock()
	})
}

// take returns and forgets the handler time recorded for id.
func (h *handlerTimes) take(id string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.d[id]
	delete(h.d, id)
	return s, ok
}

// layerSample is one traced read split by layer, in nanoseconds. A
// layer the read did not reach is 0 (a cache hit has no compute or
// walk).
type layerSample struct {
	client  int64 // client call, as the client saw it
	front   int64 // front-door handler (middleware)
	waited  int64 // front-door time spent waiting on shard work
	shard   int64 // the walking shard's handler (middleware)
	compute int64 // pool compute span: slot wait, repair, walk
	walk    int64 // scheme walk span
	hops    int64
	scatter bool
	legWalk int64 // front-door scatter-walk span
	legRes  int64 // front-door scatter-resolve span
}

// shardTrace reads the pool and scheme spans of a shard's trace.
func shardTrace(v obs.TraceView, s *layerSample) {
	for _, sp := range v.Spans {
		switch {
		case sp.Layer == "pool" && sp.Name == "compute":
			s.compute = sp.DurNs
		case sp.Layer == "scheme" && sp.Name == "walk":
			s.walk, s.hops = sp.DurNs, sp.N
		}
	}
}

// frontTrace reads the scatter legs of a front-door trace. The legs
// run concurrently; the front-door waits for the union of the two.
func frontTrace(v obs.TraceView, s *layerSample) {
	var lo, hi int64
	for _, sp := range v.Spans {
		if sp.Layer != "frontdoor" || (sp.Name != "scatter-walk" && sp.Name != "scatter-resolve") {
			continue
		}
		if !s.scatter || sp.StartNs < lo {
			lo = sp.StartNs
		}
		hi = max(hi, sp.StartNs+sp.DurNs)
		s.scatter = true
		if sp.Name == "scatter-walk" {
			s.legWalk = sp.DurNs
		} else {
			s.legRes = sp.DurNs
		}
	}
	if s.scatter {
		s.waited = hi - lo
	}
}

// clusterTraceView is the front-door's merged GET /v1/trace/{id}.
type clusterTraceView struct {
	Front  *obs.TraceView `json:"front"`
	Shards []struct {
		URL   string         `json:"url"`
		Trace *obs.TraceView `json:"trace"`
	} `json:"shards"`
}

// collect fetches the stored trace of every forced ID from the
// front-door and pairs it with the client's and the middlewares'
// timings. Reads whose trace is gone (ring eviction) are skipped and
// counted.
func collect(ctx context.Context, c *client.Client, ids []string, clientNs []int64,
	front, shard *handlerTimes, out *[]layerSample) (missing int, err error) {
	for i, id := range ids {
		raw, err := c.Trace(ctx, id)
		if client.IsStatus(err, http.StatusNotFound) {
			missing++
			continue
		}
		if err != nil {
			return missing, fmt.Errorf("trace %s: %w", id, err)
		}
		s := layerSample{client: clientNs[i]}
		sh, ok := shard.take(id)
		if !ok {
			missing++
			continue
		}
		s.shard = sh.Nanoseconds()
		var v clusterTraceView
		if err := json.Unmarshal(raw, &v); err != nil {
			return missing, fmt.Errorf("trace %s: %w", id, err)
		}
		fh, ok := front.take(id)
		if !ok || v.Front == nil {
			missing++
			continue
		}
		s.front = fh.Nanoseconds()
		frontTrace(*v.Front, &s)
		if !s.scatter {
			s.waited = s.shard // proxied: the front-door waited on one shard call
		}
		for _, st := range v.Shards {
			if st.Trace != nil {
				shardTrace(*st.Trace, &s)
			}
		}
		*out = append(*out, s)
	}
	return missing, nil
}

// layerReport turns traced samples into the per-layer metrics of the
// HTTP layers and a breakdown of the client-observed median.
func layerReport(samples []layerSample, m map[string]float64) []string {
	p := func(f func(s layerSample) (int64, bool), q float64) float64 {
		var xs []int64
		for _, s := range samples {
			if v, ok := f(s); ok {
				xs = append(xs, v)
			}
		}
		slices.Sort(xs)
		v, _ := quantile(xs, q)
		return usOf(v)
	}
	all := func(f func(s layerSample) int64) func(layerSample) (int64, bool) {
		return func(s layerSample) (int64, bool) { return f(s), true }
	}
	miss := func(f func(s layerSample) int64) func(layerSample) (int64, bool) {
		return func(s layerSample) (int64, bool) { return f(s), s.compute > 0 }
	}
	m["client.transport_us_p50"] = p(all(func(s layerSample) int64 { return s.client - s.front }), 0.5)
	m["server.handler_us_p50"] = p(all(func(s layerSample) int64 { return s.shard }), 0.5)
	m["server.handler_us_p99"] = p(all(func(s layerSample) int64 { return s.shard }), 0.99)
	m["server.self_us_p50"] = p(all(func(s layerSample) int64 { return s.shard - s.compute }), 0.5)
	m["serve.compute_us_p50"] = p(miss(func(s layerSample) int64 { return s.compute }), 0.5)
	m["serve.compute_us_p99"] = p(miss(func(s layerSample) int64 { return s.compute }), 0.99)
	m["serve.repair_us_p50"] = p(miss(func(s layerSample) int64 { return s.compute - s.walk }), 0.5)
	m["sim.walk_us_p50"] = p(miss(func(s layerSample) int64 { return s.walk }), 0.5)
	m["sim.ns_per_hop_p50"] = 1e3 * p(func(s layerSample) (int64, bool) {
		if s.hops == 0 {
			return 0, false
		}
		return s.walk / s.hops, s.compute > 0
	}, 0.5)
	m["cluster.handler_us_p50"] = p(all(func(s layerSample) int64 { return s.front }), 0.5)
	m["cluster.handler_us_p99"] = p(all(func(s layerSample) int64 { return s.front }), 0.99)
	m["cluster.self_us_p50"] = p(all(func(s layerSample) int64 { return s.front - s.waited }), 0.5)
	scat := func(f func(s layerSample) int64) func(layerSample) (int64, bool) {
		return func(s layerSample) (int64, bool) { return f(s), s.scatter }
	}
	m["cluster.scatter_walk_us_p50"] = p(scat(func(s layerSample) int64 { return s.legWalk }), 0.5)
	m["cluster.scatter_resolve_us_p50"] = p(scat(func(s layerSample) int64 { return s.legRes }), 0.5)

	// Breakdown: each read's client time split into disjoint parts
	// that sum to it exactly. Medians of parts do not add up to the
	// median of the whole; the remainder line states the difference.
	type part struct {
		name string
		f    func(s layerSample) int64
	}
	parts := []part{
		{"client transport (client − front-door handler)", func(s layerSample) int64 { return s.client - s.front }},
		{"front-door self (handler − waited)", func(s layerSample) int64 { return s.front - s.waited }},
		{"front-door → shard legs (waited − shard handler)", func(s layerSample) int64 { return s.waited - s.shard }},
		{"shard self (handler − compute)", func(s layerSample) int64 { return s.shard - s.compute }},
		{"pool + repair (compute − walk)", func(s layerSample) int64 { return s.compute - s.walk }},
		{"scheme walk", func(s layerSample) int64 { return s.walk }},
	}
	clientP50 := p(all(func(s layerSample) int64 { return s.client }), 0.5)
	notes := []string{fmt.Sprintf("breakdown of the traced client p50 (%d traced reads; a part a read skips counts 0):", len(samples))}
	sum, meanSum := 0.0, 0.0
	for _, pt := range parts {
		v := p(all(pt.f), 0.5)
		mean := 0.0
		for _, s := range samples {
			mean += float64(pt.f(s))
		}
		mean /= float64(max(len(samples), 1)) * 1e3
		sum += v
		meanSum += mean
		notes = append(notes, fmt.Sprintf("  %-52s p50 %9.2f us   mean %9.2f us", pt.name, v, mean))
	}
	notes = append(notes,
		fmt.Sprintf("  %-52s p50 %9.2f us", "remainder (client p50 − sum of part p50s)", clientP50-sum),
		fmt.Sprintf("  %-52s p50 %9.2f us   mean %9.2f us", "client-observed", clientP50, meanSum))
	return notes
}
