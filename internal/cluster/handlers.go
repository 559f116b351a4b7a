package cluster

import (
	"errors"
	"net/http"
	"strings"

	"compactroute"
	"compactroute/client"
	"compactroute/internal/obs"
	"compactroute/internal/server"
)

// Handler returns the front-door HTTP surface. It mirrors a shard's
// /v1 routes, so the same client speaks to either tier:
//
//	GET  /v1/route          proxy to the source owner (one shard call)
//	GET  /v1/resolve        proxy to the source owner
//	GET  /v1/healthz        cluster status + per-shard health rows
//	GET  /v1/stats          front-door counters + per-shard stats
//	GET  /v1/metrics        Prometheus text: cluster + per-shard series
//	GET  /v1/trace/{id}     merged trace: front-door view + shard views
//	GET  /v1/traces/recent  newest stored front-door traces
//	GET  /v1/events         bounded journal: ejections, re-admissions, cut-overs
//	POST /v1/mutate         serialized fan-out to every healthy shard
//	POST /v1/rebuild        coordinated two-phase cut-over (always waits)
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	// Every endpoint passes the observability boundary: trace minting
	// or adoption, per-endpoint status/latency metrics, slow log.
	o := &obs.HTTP{Tracer: c.tracer, Metrics: c.metrics, Slow: c.slow}
	for _, ep := range []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"GET /v1/route", c.handleRoute},
		{"GET /v1/resolve", c.handleResolve},
		{"GET /v1/healthz", c.handleHealthz},
		{"GET /v1/stats", c.handleStats},
		{"GET /v1/metrics", c.handleMetrics},
		{"GET /v1/trace/{id}", c.handleTrace},
		{"GET /v1/traces/recent", c.handleTracesRecent},
		{"GET /v1/events", c.handleEvents},
		{"POST /v1/mutate", c.handleMutate},
		{"POST /v1/rebuild", c.handleRebuild},
	} {
		_, path, _ := strings.Cut(ep.pattern, " ")
		mux.HandleFunc(ep.pattern, o.Observe(strings.TrimPrefix(path, "/v1"), ep.h))
	}
	return mux
}

// writeClusterError maps a cluster-path error onto HTTP: an API
// *Error from a shard passes through verbatim (a 422 at the shard is
// a 422 at the front-door), coordination failures are conflicts
// (409), a cluster with no healthy shard is retryable (503), and a
// transport failure the retries could not absorb is a bad gateway.
func writeClusterError(w http.ResponseWriter, err error) {
	var apiErr *client.Error
	switch {
	case errors.As(err, &apiErr):
		if apiErr.Status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		server.HTTPError(w, apiErr.Status, "%s", apiErr.Message)
	case errors.Is(err, compactroute.ErrVersionSkew):
		server.HTTPError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrNoHealthyShard):
		w.Header().Set("Retry-After", "1")
		server.HTTPError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		server.HTTPError(w, http.StatusBadGateway, "%v", err)
	}
}

func (c *Cluster) handleRoute(w http.ResponseWriter, r *http.Request) {
	src, dst, err := server.ParsePair(r)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := c.RouteByName(r.Context(), src, dst)
	if err != nil {
		writeClusterError(w, err)
		return
	}
	if res.Delivered && res.Stretch > 0 {
		c.metrics.ObserveStretch("cluster", res.Stretch)
	}
	server.WriteJSON(w, res)
}

func (c *Cluster) handleResolve(w http.ResponseWriter, r *http.Request) {
	src, dst, err := server.ParsePair(r)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := c.Resolve(r.Context(), src, dst)
	if err != nil {
		writeClusterError(w, err)
		return
	}
	server.WriteJSON(w, res)
}

// handleMutate accepts the same body as a shard (one mutation object
// or an array) and fans it out.
func (c *Cluster) handleMutate(w http.ResponseWriter, r *http.Request) {
	muts, err := server.DecodeMutations(w, r)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	reply, err := c.Mutate(r.Context(), muts...)
	if err != nil {
		writeClusterError(w, err)
		return
	}
	server.WriteJSON(w, reply)
}

// handleRebuild runs one coordinated cut-over. Unlike a shard's
// /v1/rebuild, the cluster form always waits: staging is synchronous
// and the commit needs the coordinator alive, so there is no async
// flavor to offer.
func (c *Cluster) handleRebuild(w http.ResponseWriter, r *http.Request) {
	v, pause, err := c.Rebuild(r.Context())
	if err != nil {
		writeClusterError(w, err)
		return
	}
	// The VersionInfo fields embed flat, so a client decoding a shard
	// rebuild reply (client.RebuildWait) decodes this one identically;
	// the cluster-only fields ride alongside.
	server.WriteJSON(w, struct {
		compactroute.VersionInfo
		Shards    int   `json:"shards"`
		CutoverNs int64 `json:"cutoverNs"`
	}{v, c.healthyCount(), int64(pause)})
}

// ShardHealth is one shard's row in the cluster health report.
type ShardHealth struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Version   uint64 `json:"version"`
	Pending   uint64 `json:"pending"`
	Mutations uint64 `json:"mutations"`
	Error     string `json:"error,omitempty"`
}

// handleHealthz reports the cluster view from one scrape snapshot:
// status "ok" with every shard healthy, "degraded" with at least one
// out, "down" with none serving, plus every shard's version and log
// position as that shard reports them.
func (c *Cluster) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st, views := c.snapshot(r.Context(), true)
	rows := make([]ShardHealth, len(views))
	for i, v := range views {
		rows[i] = ShardHealth{URL: v.url, Healthy: v.healthy}
		switch {
		case v.err != nil:
			rows[i].Error = v.err.Error()
		case v.stats.Dynamic != nil:
			d := v.stats.Dynamic
			rows[i].Version, rows[i].Pending, rows[i].Mutations = d.Version, d.Pending, d.Mutations
		}
	}
	status := "ok"
	switch {
	case st.Healthy == 0:
		status = "down"
	case st.Healthy < st.Shards:
		status = "degraded"
	}
	server.WriteJSON(w, map[string]any{
		"status":  status,
		"shards":  rows,
		"healthy": st.Healthy,
	})
}

// handleStats reports the front-door counters plus every shard's own
// /v1/stats, from one scrape snapshot.
func (c *Cluster) handleStats(w http.ResponseWriter, r *http.Request) {
	st, views := c.snapshot(r.Context(), true)
	type shardStats struct {
		URL   string        `json:"url"`
		Stats *server.Stats `json:"stats,omitempty"`
		Error string        `json:"error,omitempty"`
	}
	rows := make([]shardStats, len(views))
	for i, v := range views {
		rows[i] = shardStats{URL: v.url, Stats: v.stats}
		if v.err != nil {
			rows[i].Error = v.err.Error()
		}
	}
	server.WriteJSON(w, map[string]any{
		"cluster": st,
		"shards":  rows,
	})
}
