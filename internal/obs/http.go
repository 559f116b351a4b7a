package obs

import (
	"net/http"
	"sync/atomic"
	"time"
)

// StatusRecorder captures the status code written by a handler.
type StatusRecorder struct {
	http.ResponseWriter
	Status int
}

// WriteHeader records the status and forwards it.
func (r *StatusRecorder) WriteHeader(code int) {
	r.Status = code
	r.ResponseWriter.WriteHeader(code)
}

// HTTP bundles one serving tier's observability sinks and wraps its
// handlers: mint or adopt a trace, record request metrics, and feed
// the slow log. Zero-value fields are allowed — a nil Tracer never
// traces, a nil Metrics and Slow never record.
type HTTP struct {
	Tracer  *Tracer
	Metrics *Metrics
	Slow    *SlowLog
}

// Observe wraps next with the per-request observability boundary for
// the given endpoint label. The endpoint's series are resolved on its
// first request and kept by the wrapper, so later requests count
// themselves without a lookup.
func (h *HTTP) Observe(endpoint string, next http.HandlerFunc) http.HandlerFunc {
	var stats atomic.Pointer[endpointStats]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := h.Tracer.Begin(r.Header.Get(Header))
		if tr != nil {
			w.Header().Set(Header, tr.ID())
			r = r.WithContext(WithTrace(r.Context(), tr))
		}
		sw := &StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
		next(sw, r)
		dur := time.Since(start)
		ep := stats.Load()
		if ep == nil {
			ep = h.Metrics.endpoint(endpoint)
			stats.Store(ep)
		}
		if ep != nil {
			ep.observe(sw.Status, dur.Seconds())
		}
		if tr != nil {
			tr.Finish(endpoint, sw.Status)
			h.Tracer.Store(tr)
		}
		h.Slow.Observe(endpoint, r.URL.RawQuery, tr.ID(), sw.Status, dur)
	}
}
