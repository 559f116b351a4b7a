package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"compactroute/client"
	"compactroute/internal/obs"
	"compactroute/internal/server"
)

// handleMetrics serves the front-door scrape: request-level families
// from the middleware, the cluster coordination counters, and a
// per-shard block aggregated from each shard's /v1/stats at scrape
// time with a shard="<url>" label, so one scrape of the front-door
// sees the whole tier.
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteText(w, c.metricFamilies(ctx)); err != nil {
		c.logf("cluster: writing metrics: %v", err)
	}
}

// shardScrape is the slice of a shard's /v1/stats reply the per-shard
// series re-export (the embedded serve.Stats marshals with Go field
// names; the dynamic block is tagged).
type shardScrape struct {
	Requests uint64 `json:"Requests"`
	Hits     uint64 `json:"Hits"`
	Dynamic  *struct {
		Version uint64 `json:"version"`
	} `json:"dynamic"`
}

// metricFamilies assembles the scrape deterministically: fixed family
// order, shard points in configured shard order.
func (c *Cluster) metricFamilies(ctx context.Context) []obs.Family {
	st := c.Stats()
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
	// Per-shard series, labeled shard="<url>". The up gauge comes from
	// the front-door's own health bits; the rest are scraped from each
	// healthy shard's /v1/stats (an unreachable shard simply has no
	// points this scrape — up=0 already says why).
	up := obs.Family{Name: obs.MetricShardUp, Type: "gauge",
		Help: "1 if the front-door considers the shard healthy"}
	reqs := obs.Family{Name: obs.MetricShardRequestsTotal, Type: "counter",
		Help: "queries admitted by the shard's worker pool"}
	hits := obs.Family{Name: obs.MetricShardHitsTotal, Type: "counter",
		Help: "queries the shard served from its result cache"}
	vers := obs.Family{Name: obs.MetricShardTopologyVersion, Type: "gauge",
		Help: "topology version the shard is serving"}
	for _, s := range c.shards {
		lbl := []obs.Label{{Name: "shard", Value: s.url}}
		healthy := s.healthy.Load()
		v := 0.0
		if healthy {
			v = 1
		}
		up.Points = append(up.Points, obs.Point{Labels: lbl, Value: v})
		if !healthy {
			continue
		}
		raw, err := s.c.Stats(ctx)
		if err != nil {
			continue
		}
		var ss shardScrape
		if json.Unmarshal(raw, &ss) != nil {
			continue
		}
		reqs.Points = append(reqs.Points, obs.Point{Labels: lbl, Value: float64(ss.Requests)})
		hits.Points = append(hits.Points, obs.Point{Labels: lbl, Value: float64(ss.Hits)})
		if ss.Dynamic != nil {
			vers.Points = append(vers.Points, obs.Point{Labels: lbl, Value: float64(ss.Dynamic.Version)})
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
