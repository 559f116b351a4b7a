package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"

	"compactroute"
	"compactroute/internal/obs"
	"compactroute/internal/serve"
)

// ErrStatic reports a mutation-path operation (mutate, rebuild, stage,
// swap) on a server whose scheme was loaded from a file and is frozen.
// Conflict semantics: StatusFor maps it to 409.
var ErrStatic = errors.New("scheme is static (loaded from a file); serve a registry kind to mutate")

// endpoints is the route table shared by the /v1 surface and the
// deprecated unversioned aliases.
func (s *Server) endpoints() []struct {
	method, path string
	h            http.HandlerFunc
	legacy       bool // also registered unversioned (the pre-v1 surface)
} {
	return []struct {
		method, path string
		h            http.HandlerFunc
		legacy       bool
	}{
		{"GET", "/route", s.handleRoute, true},
		{"GET", "/resolve", s.handleResolve, false},
		{"GET", "/healthz", s.handleHealthz, true},
		{"GET", "/stats", s.handleStats, true},
		{"GET", "/metrics", s.handleMetrics, false},
		{"GET", "/trace/{id}", s.handleTrace, false},
		{"GET", "/traces/recent", s.handleTracesRecent, false},
		{"GET", "/events", s.handleEvents, false},
		{"POST", "/mutate", s.handleMutate, true},
		{"POST", "/rebuild", s.handleRebuild, true},
		{"POST", "/swap", s.handleSwap, false},
	}
}

// initRoutes wires the pool and the HTTP routes shared by both modes.
// Every endpoint lives under /v1; the original unversioned paths stay
// registered as deprecated aliases answering identically (plus a
// Deprecation header), so pre-v1 clients keep working.
func (s *Server) initRoutes(r serve.Router) {
	s.pool = serve.NewPool(r, serve.Options{Workers: s.cfg.Workers, CacheSize: s.cfg.CacheSize, Shards: s.cfg.Shards})
	s.mux = http.NewServeMux()
	// Every endpoint passes the observability boundary: trace minting
	// or adoption, per-endpoint status/latency metrics, slow log.
	o := &obs.HTTP{Tracer: s.tracer, Metrics: s.metrics, Slow: s.slow}
	for _, ep := range s.endpoints() {
		h := o.Observe(ep.path, ep.h)
		s.mux.HandleFunc(ep.method+" /v1"+ep.path, h)
		if ep.legacy {
			s.mux.HandleFunc(ep.method+" "+ep.path, deprecated(ep.path, h))
		}
	}
}

// deprecated marks a legacy unversioned endpoint: same handler, plus
// headers pointing clients at the /v1 successor.
func deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "</v1"+successor+`>; rel="successor-version"`)
		h(w, r)
	}
}

// RouteResponse is the JSON shape of a routing answer. Version is the
// topology version the route was computed on (dynamic mode only; nil
// for a static scheme) — cluster front-doors compare it across shards
// to detect skew.
type RouteResponse struct {
	Delivered    bool    `json:"delivered"`
	Cost         float64 `json:"cost"`
	Hops         int     `json:"hops"`
	HeaderBits   int64   `json:"headerBits"`
	ShortestCost float64 `json:"shortestCost,omitempty"`
	Stretch      float64 `json:"stretch,omitempty"`
	Version      *uint64 `json:"version,omitempty"`
}

// ResolveResponse is the JSON shape of GET /v1/resolve: name existence
// plus the shortest-path distance between two names on the serving
// version — the cheap check a caller runs before (or instead of)
// walking a route.
type ResolveResponse struct {
	SrcKnown     bool    `json:"srcKnown"`
	DstKnown     bool    `json:"dstKnown"`
	MetricKnown  bool    `json:"metricKnown"`
	ShortestCost float64 `json:"shortestCost,omitempty"`
	Version      *uint64 `json:"version,omitempty"`
}

// StatusFor maps an error onto an HTTP status through the typed
// taxonomy — errors.Is on the sentinels, never error text. The crlint
// errtaxonomy analyzer keeps this mapper total over the routeerr
// sentinels: adding a sentinel without deciding its status here fails
// the lint.
//
//	422  the caller named a thing that does not exist: a node, a
//	     label, or a scheme kind (ErrUnknownName, ErrUnknownLabel,
//	     ErrUnknownKind)
//	503  saturation or cancellation: retryable back-pressure
//	409  the serving state cannot do this: mutating a static scheme,
//	     a coordinated-swap version mismatch, saving a kind with no
//	     persistent form, an operation needing an absent metric
//	     (ErrStatic, compactroute.ErrVersionSkew, ErrNotPersistable,
//	     ErrNoMetric)
//	502  the transient fault overlay blocks the query: an endpoint is
//	     down or every delivered path crosses a failed element
//	     (ErrUnreachable). Bad gateway, not 500 — the scheme did its
//	     job; the network under it is degraded, and the answer changes
//	     once the outage recovers or a rebuild absorbs the loss
//	500  a scheme invariant violation: a mandatory-delivery route
//	     that did not deliver (ErrNotDelivered), or anything unmapped
func StatusFor(err error) int {
	switch {
	case errors.Is(err, compactroute.ErrUnknownName),
		errors.Is(err, compactroute.ErrUnknownLabel),
		errors.Is(err, compactroute.ErrUnknownKind):
		return http.StatusUnprocessableEntity
	case errors.Is(err, compactroute.ErrUnreachable):
		return http.StatusBadGateway
	case errors.Is(err, compactroute.ErrSaturated),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrStatic),
		errors.Is(err, compactroute.ErrVersionSkew),
		errors.Is(err, compactroute.ErrNotPersistable),
		errors.Is(err, compactroute.ErrNoMetric):
		return http.StatusConflict
	case errors.Is(err, compactroute.ErrNotDelivered):
		// Explicitly 500: delivery was mandatory and the scheme failed
		// its own guarantee. Listed so the mapper stays total.
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

// errorStatus writes err with its StatusFor code, adding Retry-After
// on the retryable 503s.
func errorStatus(w http.ResponseWriter, err error) {
	code := StatusFor(err)
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	HTTPError(w, code, "%v", err)
}

// routeVersioned routes through the pool and pins the topology version
// the answer belongs to. The version is read on both sides of the
// route: when the reads agree, no swap ran in between, so the route
// was computed on exactly that version. A swap racing the route (rare:
// swaps are sub-millisecond events) retries; after a few lost races
// the answer ships with the latest version, best effort.
func (s *Server) routeVersioned(ctx context.Context, src, dst uint64) (serve.Result, *uint64, error) {
	if s.dyn == nil {
		res, err := s.pool.Route(ctx, src, dst)
		return res, nil, err
	}
	var res serve.Result
	var err error
	for range 3 {
		before := s.dyn.Version().ID
		res, err = s.pool.Route(ctx, src, dst)
		if err != nil {
			return res, nil, err
		}
		if after := s.dyn.Version().ID; after == before {
			return res, &after, nil
		}
	}
	v := s.dyn.Version().ID
	return res, &v, nil
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	src, err := ParseName(r.URL.Query().Get("src"))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "bad src: %v", err)
		return
	}
	dst, err := ParseName(r.URL.Query().Get("dst"))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "bad dst: %v", err)
		return
	}
	res, version, err := s.routeVersioned(r.Context(), src, dst)
	if err != nil {
		errorStatus(w, err)
		return
	}
	resp := RouteResponse{
		Delivered:  res.Delivered,
		Cost:       res.Cost,
		Hops:       res.Hops,
		HeaderBits: res.HeaderBits,
		Version:    version,
	}
	if res.MetricKnown {
		resp.ShortestCost = res.ShortestCost
		if res.ShortestCost > 0 {
			resp.Stretch = res.Cost / res.ShortestCost
			if res.Delivered {
				s.metrics.ObserveStretch(s.servedKind(), resp.Stretch)
			}
		}
	}
	WriteJSON(w, resp)
}

// servedKind names the scheme kind answering routes, for the stretch
// histogram's kind label.
func (s *Server) servedKind() string {
	if s.dyn != nil {
		return s.kind
	}
	return s.scheme.Kind()
}

// handleResolve answers name existence and the shortest-path distance
// between two names, without walking a route — O(1) against the
// version's metric. Unknown names are data here, not errors: a caller
// asking "does this name exist?" must be able to tell "no" from a
// failed request.
func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	src, err := ParseName(r.URL.Query().Get("src"))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "bad src: %v", err)
		return
	}
	dst, err := ParseName(r.URL.Query().Get("dst"))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "bad dst: %v", err)
		return
	}
	var resp ResolveResponse
	for range 3 {
		var before uint64
		if s.dyn != nil {
			before = s.dyn.Version().ID
		}
		resp = s.resolveOnce(src, dst)
		if s.dyn == nil {
			break
		}
		if after := s.dyn.Version().ID; after == before {
			resp.Version = &after
			break
		}
		v := s.dyn.Version().ID
		resp.Version = &v
	}
	WriteJSON(w, resp)
}

// resolveOnce resolves both names on the scheme serving right now.
func (s *Server) resolveOnce(src, dst uint64) ResolveResponse {
	net := s.currentScheme().Network()
	su, sok := net.Graph().Lookup(src)
	du, dok := net.Graph().Lookup(dst)
	resp := ResolveResponse{SrcKnown: sok, DstKnown: dok, MetricKnown: net.HasMetric()}
	if sok && dok && resp.MetricKnown {
		if d, err := net.TryDistance(su, du); err == nil {
			resp.ShortestCost = d
		}
	}
	return resp
}

// handleMutate appends topology mutations (dynamic mode only). The
// body is one mutation object or a JSON array; the batch is atomic —
// either every mutation is accepted or none is (422).
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.dyn == nil {
		errorStatus(w, ErrStatic)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var muts []compactroute.Mutation
	trimmed := strings.TrimSpace(string(body))
	if strings.HasPrefix(trimmed, "[") {
		err = json.Unmarshal(body, &muts)
	} else {
		var m compactroute.Mutation
		if err = json.Unmarshal(body, &m); err == nil {
			muts = []compactroute.Mutation{m}
		}
	}
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "bad mutation body: %v", err)
		return
	}
	if len(muts) == 0 {
		HTTPError(w, http.StatusBadRequest, "no mutations in body")
		return
	}
	// Through Mutate, not dyn.Apply: accepted fault events must reach
	// the repair layer (and purge the cache) before the 200 goes out.
	seq, err := s.Mutate(muts...)
	if err != nil {
		HTTPError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.maybeAutoRebuild()
	WriteJSON(w, map[string]any{
		"applied": len(muts),
		"seq":     seq,
		"pending": s.dyn.Pending(),
	})
}

// handleRebuild triggers a background rebuild (202). With ?wait=1 it
// blocks until the rebuild completes and reports the new version
// (200), the rebuild error (500), or the caller's cancellation (503).
// With ?stage=1 it runs the first half of a two-phase rebuild
// synchronously — build everything, swap nothing — and reports the
// staged version for a later POST /v1/swap; a cluster coordinator
// stages every shard, checks the IDs agree, then commits them all.
func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	if s.dyn == nil {
		errorStatus(w, ErrStatic)
		return
	}
	q := r.URL.Query()
	// ?stage and ?wait are booleans: absent, "0", "false", or garbage
	// all mean the async 202 flow; only an affirmative value changes it.
	if stage, _ := strconv.ParseBool(q.Get("stage")); stage {
		v, err := s.dyn.Stage(r.Context())
		if err != nil {
			errorStatus(w, err)
			return
		}
		WriteJSON(w, v)
		return
	}
	if wait, _ := strconv.ParseBool(q.Get("wait")); !wait {
		status := "scheduled"
		if !s.triggerRebuild(nil) {
			status = "already scheduled"
		}
		WriteJSONStatus(w, http.StatusAccepted, map[string]any{"status": status, "pending": s.dyn.Pending()})
		return
	}
	reply := make(chan rebuildReply, 1)
	select {
	case s.rebuildReq <- reply:
	case <-r.Context().Done():
		w.Header().Set("Retry-After", "1")
		HTTPError(w, http.StatusServiceUnavailable, "canceled while waiting for the rebuild worker")
		return
	}
	select {
	case out := <-reply:
		if out.err != nil {
			HTTPError(w, http.StatusInternalServerError, "rebuild failed: %v", out.err)
			return
		}
		WriteJSON(w, out.v)
	case <-r.Context().Done():
		// The rebuild keeps running; the caller just stopped waiting.
		w.Header().Set("Retry-After", "1")
		HTTPError(w, http.StatusServiceUnavailable, "canceled while rebuilding (rebuild continues)")
	}
}

// handleSwap commits a staged version by ID (the second half of a
// two-phase rebuild). Committing the serving version's ID is an
// idempotent 200; naming anything else answers 409 so the coordinator
// learns this shard disagrees before the cluster does.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if s.dyn == nil {
		errorStatus(w, ErrStatic)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var req struct {
		Version *uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		HTTPError(w, http.StatusBadRequest, "bad swap body: %v", err)
		return
	}
	if req.Version == nil {
		HTTPError(w, http.StatusBadRequest, `swap body needs {"version": <id>}`)
		return
	}
	v, err := s.dyn.SwapTo(*req.Version)
	if err != nil {
		errorStatus(w, err)
		return
	}
	WriteJSON(w, v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	scheme := s.currentScheme()
	resp := map[string]any{
		"status": "ok",
		"scheme": scheme.Name(),
		"kind":   scheme.Kind(),
		"nodes":  scheme.Network().N(),
		"edges":  scheme.Network().Graph().M(),
		"metric": scheme.Network().HasMetric(),
	}
	if s.dyn != nil {
		v := s.dyn.Version()
		swaps, _, _ := s.dyn.SwapStats()
		pending := s.dyn.Pending()
		resp["dynamic"] = true
		resp["version"] = v.ID
		resp["pending"] = pending
		// Log length: the cluster's re-admission check compares it (and
		// the version ID) against a healthy reference shard before
		// letting an ejected shard serve again.
		resp["mutations"] = v.MutTo + pending
		resp["swaps"] = swaps
		fs := s.repair.Stats()
		resp["downNodes"] = fs.DownNodes
		resp["downEdges"] = fs.DownEdges
		resp["damped"] = fs.Damped
	}
	WriteJSON(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, s.Stats())
}

// ParseName parses a node name as decimal or 0x-prefixed hex — and
// nothing else. ParseUint's base 0 would accept octal ("010" → 8)
// and underscores, silently corrupting lookups of decimal names with
// leading zeros.
func ParseName(s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("missing")
	}
	if len(s) > 2 && (strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X")) {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

// WriteJSON writes v as a 200 application/json response.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("server: writing response: %v", err)
	}
}

// WriteJSONStatus is WriteJSON with a non-200 status: the header must
// be set before WriteHeader commits the response, or the content type
// would be sniffed as text/plain.
func WriteJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("server: writing response: %v", err)
	}
}

// HTTPError writes a JSON error body {"error": ...} with the status.
func HTTPError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
