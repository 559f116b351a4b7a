package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"compactroute"
	"compactroute/client"
	"compactroute/internal/obs"
	"compactroute/internal/serve"
)

// ErrStatic reports a mutation-path operation (mutate, rebuild, stage,
// swap) on a server whose scheme was loaded from a file and is frozen.
// Conflict semantics: StatusFor maps it to 409.
var ErrStatic = errors.New("scheme is static (loaded from a file); serve a registry kind to mutate")

// initRoutes wires the pool and the /v1 HTTP routes shared by both
// modes.
func (s *Server) initRoutes(r serve.Router) {
	s.pool = serve.NewPool(r, s.cfg.Workers)
	s.mux = http.NewServeMux()
	// Every endpoint passes the observability boundary: trace minting
	// or adoption, per-endpoint status/latency metrics, slow log.
	o := &obs.HTTP{Tracer: s.tracer, Metrics: s.metrics, Slow: s.slow}
	for _, ep := range []struct {
		method, path string
		h            http.HandlerFunc
	}{
		{"GET", "/route", s.handleRoute},
		{"GET", "/healthz", s.handleHealthz},
		{"GET", "/stats", s.handleStats},
		{"GET", "/metrics", s.handleMetrics},
		{"GET", "/trace/{id}", s.handleTrace},
		{"GET", "/traces/recent", s.handleTracesRecent},
		{"GET", "/events", s.handleEvents},
		{"POST", "/mutate", s.handleMutate},
		{"POST", "/rebuild", s.handleRebuild},
		{"POST", "/swap", s.handleSwap},
	} {
		s.mux.HandleFunc(ep.method+" /v1"+ep.path, o.Observe(ep.path, ep.h))
	}
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
// the answer belongs to (0 on a static scheme, which has none). The
// version is read on both sides of the route: when the reads agree, no
// swap ran in between, so the route was computed on exactly that
// version. A swap racing the route (rare: swaps are sub-millisecond
// events) retries; after a few lost races the answer ships with the
// latest version, best effort. It allocates nothing beyond the pool's
// route.
func (s *Server) routeVersioned(ctx context.Context, src, dst uint64) (compactroute.Result, uint64, error) {
	if s.dyn == nil {
		res, err := s.pool.Route(ctx, src, dst)
		return res, 0, err
	}
	var res compactroute.Result
	var err error
	for range 3 {
		before := s.dyn.Version().ID
		res, err = s.pool.Route(ctx, src, dst)
		if err != nil {
			return res, 0, err
		}
		if after := s.dyn.Version().ID; after == before {
			return res, after, nil
		}
	}
	return res, s.dyn.Version().ID, nil
}

// handleRoute answers in the wire shape the client decodes
// (client.Route): the shard and the front-door write the same bytes.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	src, dst, err := ParsePair(r)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, version, err := s.routeVersioned(r.Context(), src, dst)
	if err != nil {
		errorStatus(w, err)
		return
	}
	resp := client.Route{
		Delivered:  res.Delivered,
		Cost:       res.Cost,
		Hops:       res.Hops,
		HeaderBits: res.HeaderBits,
	}
	if s.dyn != nil {
		resp.Version = &version
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
	WriteRoute(w, resp)
}

// servedKind names the scheme kind answering routes, for the stretch
// histogram's kind label.
func (s *Server) servedKind() string {
	if s.dyn != nil {
		return s.kind
	}
	return s.scheme.Kind()
}

// handleMutate appends topology mutations (dynamic mode only). The
// body is one mutation object or a JSON array; the batch is atomic —
// either every mutation is accepted or none is (422).
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.dyn == nil {
		errorStatus(w, ErrStatic)
		return
	}
	muts, err := DecodeMutations(w, r)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Through Mutate, not dyn.Apply: accepted fault events must reach
	// the repair layer before the 200 goes out.
	seq, err := s.Mutate(muts...)
	if err != nil {
		HTTPError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.maybeAutoRebuild()
	WriteJSON(w, client.MutateReply{Applied: len(muts), Seq: seq, Pending: s.dyn.Pending()})
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
		WriteJSONStatus(w, http.StatusAccepted, client.RebuildReply{Status: status, Pending: s.dyn.Pending()})
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
	st := s.Stats()
	resp := map[string]any{
		"status": "ok",
		"scheme": st.Scheme,
		"kind":   st.Kind,
		"nodes":  st.Nodes,
		"edges":  st.Edges,
		"metric": st.Metric,
	}
	if d := st.Dynamic; d != nil {
		resp["dynamic"] = true
		resp["version"] = d.Version
		resp["pending"] = d.Pending
		// Log length: the cluster's re-admission check compares it (and
		// the version ID) against a healthy reference shard before
		// letting an ejected shard serve again.
		resp["mutations"] = d.Mutations
		resp["swaps"] = d.Swaps
		resp["downNodes"] = st.Faults.DownNodes
		resp["downEdges"] = st.Faults.DownEdges
		resp["damped"] = st.Faults.Damped
	}
	WriteJSON(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, s.Stats())
}

// ParsePair parses the src and dst query parameters of a route
// request, naming the bad one in the error (a 400 at both tiers).
// Like url.Values.Get, it takes the first value of each.
func ParsePair(r *http.Request) (src, dst uint64, err error) {
	s, d := queryPair(r.URL.RawQuery)
	if src, err = ParseName(s); err != nil {
		return 0, 0, fmt.Errorf("bad src: %v", err)
	}
	if dst, err = ParseName(d); err != nil {
		return 0, 0, fmt.Errorf("bad dst: %v", err)
	}
	return src, dst, nil
}

// queryPair returns the first src and dst values of a raw query, as
// url.ParseQuery decodes them. Without an escape ('%' or '+') or a
// ';' (which ParseQuery rejects pair by pair) the query decodes to
// itself, so it is scanned in place; otherwise ParseQuery decodes it.
func queryPair(raw string) (src, dst string) {
	if strings.ContainsAny(raw, "%+;") {
		q, _ := url.ParseQuery(raw)
		return q.Get("src"), q.Get("dst")
	}
	var haveSrc, haveDst bool
	for raw != "" && !(haveSrc && haveDst) {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		key, value, _ := strings.Cut(pair, "=")
		switch {
		case key == "src" && !haveSrc:
			src, haveSrc = value, true
		case key == "dst" && !haveDst:
			dst, haveDst = value, true
		}
	}
	return src, dst
}

// DecodeMutations reads a /v1/mutate body — one mutation object or a
// JSON array of them, at most 16 MiB — and rejects an empty batch. Its
// errors are the caller's fault (a 400 at both tiers).
func DecodeMutations(w http.ResponseWriter, r *http.Request) ([]compactroute.Mutation, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("reading body: %v", err)
	}
	var muts []compactroute.Mutation
	if strings.HasPrefix(strings.TrimSpace(string(body)), "[") {
		err = json.Unmarshal(body, &muts)
	} else {
		var m compactroute.Mutation
		if err = json.Unmarshal(body, &m); err == nil {
			muts = []compactroute.Mutation{m}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("bad mutation body: %v", err)
	}
	if len(muts) == 0 {
		return nil, errors.New("no mutations in body")
	}
	return muts, nil
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

// routeBufs pools the buffers WriteRoute encodes answers into.
var routeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// WriteRoute writes a route answer as a 200 application/json response,
// in the bytes WriteJSON would write, encoded by client.Route's own
// codec into a pooled buffer. An answer with a non-finite number has
// no JSON form; it is a 500 with a JSON error body.
func WriteRoute(w http.ResponseWriter, res client.Route) {
	bp := routeBufs.Get().(*[]byte)
	defer routeBufs.Put(bp)
	b, err := res.AppendJSON((*bp)[:0])
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, "encoding route: %v", err)
		return
	}
	*bp = b
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(b); err != nil {
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
