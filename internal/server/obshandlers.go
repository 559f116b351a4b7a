package server

import (
	"net/http"
	"strconv"
	"time"

	"compactroute/internal/obs"
)

// handleMetrics serves the full scrape in Prometheus text format:
// request-level families from the middleware, pool counters, the
// dynamic topology/swap/fault block, and journal/trace counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteText(w, s.metricFamilies()); err != nil {
		s.logf("server: writing metrics: %v", err)
	}
}

// metricFamilies assembles the scrape deterministically from one
// Stats snapshot: fixed family order, sorted label sets within each
// family.
func (s *Server) metricFamilies() []obs.Family {
	st := s.Stats()
	fams := s.metrics.Families()
	fams = append(fams,
		obs.Counter(obs.MetricPoolRequestsTotal, "queries admitted by the worker pool", float64(st.Requests)),
		obs.Counter(obs.MetricPoolHitsTotal, "queries served from the result cache", float64(st.Hits)),
		obs.Counter(obs.MetricPoolMissesTotal, "queries routed by a worker", float64(st.Misses)),
		obs.Counter(obs.MetricPoolCoalescedTotal, "queries that joined an identical in-flight computation", float64(st.Coalesced)),
		obs.Counter(obs.MetricPoolErrorsTotal, "routing errors", float64(st.Errors)),
		obs.Counter(obs.MetricPoolRejectedTotal, "queries canceled while waiting for a worker or a flight", float64(st.Rejected)),
		obs.Counter(obs.MetricPoolPurgesTotal, "full result-cache invalidations", float64(st.Purges)),
		obs.Gauge(obs.MetricPoolInflight, "queries routing right now", float64(st.InFlight)),
		obs.Gauge(obs.MetricPoolCacheEntries, "result-cache entries resident", float64(st.CacheLen)),
		obs.Gauge(obs.MetricPoolCacheCapacity, "result-cache configured capacity", float64(st.CacheCap)),
		obs.Gauge(obs.MetricPoolWorkers, "worker pool size", float64(st.Workers)),
	)
	if d := st.Dynamic; d != nil {
		fams = append(fams,
			obs.Gauge(obs.MetricTopologyVersion, "topology version serving right now", float64(d.Version)),
			obs.Counter(obs.MetricMutationsTotal, "mutation log length (applied + pending)", float64(d.Mutations)),
			obs.Gauge(obs.MetricMutationsPending, "mutations awaiting a rebuild", float64(d.Pending)),
			obs.Counter(obs.MetricSwapsTotal, "topology hot swaps committed", float64(d.Swaps)),
			obs.Family{Name: obs.MetricSwapPauseSeconds, Type: "gauge",
				Help: "hot-swap serving pause, last and lifetime max",
				Points: []obs.Point{
					{Labels: []obs.Label{{Name: "window", Value: "last"}}, Value: time.Duration(d.LastPauseNs).Seconds()},
					{Labels: []obs.Label{{Name: "window", Value: "max"}}, Value: time.Duration(d.MaxPauseNs).Seconds()},
				}},
			obs.Gauge(obs.MetricRebuildWallSeconds, "build wall time of the serving version", time.Duration(d.BuildWallNs).Seconds()),
			obs.Gauge(obs.MetricFaultDownNodes, "nodes currently down in the fault overlay", float64(st.Faults.DownNodes)),
			obs.Gauge(obs.MetricFaultDownEdges, "edges currently down in the fault overlay", float64(st.Faults.DownEdges)),
			obs.Gauge(obs.MetricFaultDamped, "elements currently flap-damped", float64(st.Faults.Damped)),
		)
	}
	fams = append(fams,
		obs.Counter(obs.MetricTracesSampledTotal, "requests traced (sampled or forced by a propagated ID)", float64(s.tracer.Sampled())),
		s.journal.CountFamily(),
	)
	return fams
}

// handleTrace serves one stored trace by request ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.tracer.Get(id)
	if !ok {
		HTTPError(w, http.StatusNotFound, "no stored trace %q (ring may have evicted it)", id)
		return
	}
	WriteJSON(w, v)
}

// handleTracesRecent serves the newest stored traces (?n=, default
// 32, capped at the ring size).
func (s *Server) handleTracesRecent(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			HTTPError(w, http.StatusBadRequest, "bad n: %q", q)
			return
		}
		n = v
	}
	traces := s.tracer.Recent(n)
	if traces == nil {
		traces = []obs.TraceView{}
	}
	WriteJSON(w, map[string]any{"traces": traces})
}

// handleEvents serves the bounded event journal: swaps, fault
// transitions, rebuild failures — oldest first.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	events := s.journal.Events()
	if events == nil {
		events = []obs.Event{}
	}
	WriteJSON(w, map[string]any{"events": events})
}
