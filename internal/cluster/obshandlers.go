package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"compactroute/client"
	"compactroute/internal/obs"
	"compactroute/internal/server"
)

// scrapeTimeout bounds one scrape's shard fan-out.
const scrapeTimeout = 5 * time.Second

// shardView is one shard's part of a scrape snapshot: the front-door's
// health bit for it and the shard's own /v1/stats, or the error that
// fetch failed with.
type shardView struct {
	url     string
	healthy bool
	stats   *server.Stats // nil when err is set
	err     error
}

// snapshot is the one read behind every front-door scrape view
// (/v1/healthz, /v1/stats, /v1/metrics): the coordination counters and
// every shard's health bit, taken first, then each shard's /v1/stats,
// fetched once per shard and in parallel. Healthy is recounted from
// the rows' health bits, so all views of one scrape agree on which
// shards are in. With ejected false, ejected shards get a row but no
// fetch: metrics emits no stats for them, and one hung ejected shard
// must not stall every scrape by the full timeout.
func (c *Cluster) snapshot(ctx context.Context, ejected bool) (Stats, []shardView) {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	st := c.Stats()
	st.Healthy = 0
	views := make([]shardView, len(c.shards))
	var wg sync.WaitGroup
	for i, s := range c.shards {
		views[i] = shardView{url: s.url, healthy: s.healthy.Load()}
		if views[i].healthy {
			st.Healthy++
		} else if !ejected {
			continue
		}
		wg.Add(1)
		go func(v *shardView, s *shard) {
			defer wg.Done()
			raw, err := s.c.Stats(ctx)
			if err == nil {
				var ss server.Stats
				if err = json.Unmarshal(raw, &ss); err == nil {
					v.stats = &ss
				}
			}
			v.err = err
		}(&views[i], s)
	}
	wg.Wait()
	return st, views
}

// handleMetrics serves the front-door scrape: request-level families
// from the middleware, the cluster coordination counters, and a
// per-shard block from the scrape snapshot with a shard="<url>" label,
// so one scrape of the front-door sees the whole tier.
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteText(w, c.metricFamilies(r.Context())); err != nil {
		c.logf("cluster: writing metrics: %v", err)
	}
}

// metricFamilies assembles the scrape deterministically from one
// snapshot: fixed family order, shard points in configured shard
// order.
func (c *Cluster) metricFamilies(ctx context.Context) []obs.Family {
	st, views := c.snapshot(ctx, false)
	fams := c.metrics.Families()
	fams = append(fams,
		obs.Counter(obs.MetricClusterRoutesTotal, "routing queries admitted by the front-door", float64(st.Routes)),
		obs.Counter(obs.MetricClusterProxiedTotal, "routes answered by one call to the source's owner", float64(st.Proxied)),
		obs.Counter(obs.MetricClusterFailoversTotal, "route retries after a shard ejection", float64(st.Failovers)),
		obs.Counter(obs.MetricClusterEjectionsTotal, "shards ejected for transport failures", float64(st.Ejections)),
		obs.Counter(obs.MetricClusterReadmissionsTotal, "ejected shards re-admitted by the health loop", float64(st.Readmissions)),
		obs.Counter(obs.MetricClusterSkewsTotal, "answers or staged versions refused for version skew", float64(st.SkewObserved)),
		obs.Counter(obs.MetricClusterSwapsTotal, "coordinated cut-overs completed", float64(st.Swaps)),
		obs.Family{Name: obs.MetricClusterCutoverSeconds, Type: "gauge",
			Help: "coordinated cut-over pause, last and lifetime max",
			Points: []obs.Point{
				{Labels: []obs.Label{{Name: "window", Value: "last"}}, Value: time.Duration(st.LastCutoverNs).Seconds()},
				{Labels: []obs.Label{{Name: "window", Value: "max"}}, Value: time.Duration(st.MaxCutoverNs).Seconds()},
			}},
		obs.Gauge(obs.MetricClusterShards, "shards configured", float64(st.Shards)),
		obs.Gauge(obs.MetricClusterShardsHealthy, "shards serving right now", float64(st.Healthy)),
	)
	// Per-shard series, labeled shard="<url>". The up gauge is the
	// front-door's own health bit; the rest come from the shard's
	// stats, which the snapshot fetched for healthy shards only (an
	// ejected shard simply has no points this scrape — up=0 already
	// says why — and neither has a healthy one whose fetch failed).
	up := obs.Family{Name: obs.MetricShardUp, Type: "gauge",
		Help: "1 if the front-door considers the shard healthy"}
	reqs := obs.Family{Name: obs.MetricShardRequestsTotal, Type: "counter",
		Help: "queries admitted by the shard's worker pool"}
	hits := obs.Family{Name: obs.MetricShardHitsTotal, Type: "counter",
		Help: "queries the shard served from its result cache"}
	vers := obs.Family{Name: obs.MetricShardTopologyVersion, Type: "gauge",
		Help: "topology version the shard is serving"}
	for _, v := range views {
		lbl := []obs.Label{{Name: "shard", Value: v.url}}
		upv := 0.0
		if v.healthy {
			upv = 1
		}
		up.Points = append(up.Points, obs.Point{Labels: lbl, Value: upv})
		if v.stats == nil {
			continue
		}
		reqs.Points = append(reqs.Points, obs.Point{Labels: lbl, Value: float64(v.stats.Requests)})
		hits.Points = append(hits.Points, obs.Point{Labels: lbl, Value: float64(v.stats.Hits)})
		if d := v.stats.Dynamic; d != nil {
			vers.Points = append(vers.Points, obs.Point{Labels: lbl, Value: float64(d.Version)})
		}
	}
	fams = append(fams, up, reqs, hits, vers,
		obs.Counter(obs.MetricTracesSampledTotal, "requests traced (sampled or forced by a propagated ID)", float64(c.tracer.Sampled())),
		c.journal.CountFamily(),
	)
	return fams
}

// handleTrace merges the cluster-wide view of one traced request: the
// front-door's own stored trace plus each healthy shard's stored view
// under the same propagated ID. Shards that never saw the request (or
// whose ring evicted it) report a 404, which the merge renders as an
// absent trace rather than an error.
func (c *Cluster) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	type shardTrace struct {
		URL   string          `json:"url"`
		Trace json.RawMessage `json:"trace,omitempty"`
		Error string          `json:"error,omitempty"`
	}
	front, frontOK := c.tracer.Get(id)
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	found := frontOK
	rows := make([]shardTrace, 0, len(c.shards))
	for _, s := range c.shards {
		if !s.healthy.Load() {
			continue
		}
		row := shardTrace{URL: s.url}
		raw, err := s.c.Trace(ctx, id)
		switch {
		case err == nil:
			row.Trace = raw
			found = true
		case !client.IsStatus(err, http.StatusNotFound):
			row.Error = err.Error()
		}
		rows = append(rows, row)
	}
	if !found {
		server.HTTPError(w, http.StatusNotFound, "no stored trace %q on the front-door or any healthy shard", id)
		return
	}
	resp := map[string]any{"id": id, "shards": rows}
	if frontOK {
		resp["front"] = front
	}
	server.WriteJSON(w, resp)
}

// handleTracesRecent serves the newest front-door traces (?n=,
// default 32, capped at the ring size).
func (c *Cluster) handleTracesRecent(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			server.HTTPError(w, http.StatusBadRequest, "bad n: %q", q)
			return
		}
		n = v
	}
	traces := c.tracer.Recent(n)
	if traces == nil {
		traces = []obs.TraceView{}
	}
	server.WriteJSON(w, map[string]any{"traces": traces})
}

// handleEvents serves the bounded front-door journal: ejections,
// re-admissions, cut-overs — oldest first.
func (c *Cluster) handleEvents(w http.ResponseWriter, r *http.Request) {
	events := c.journal.Events()
	if events == nil {
		events = []obs.Event{}
	}
	server.WriteJSON(w, map[string]any{"events": events})
}
