package obs

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// StatusRecorder captures the status code written by a handler.
type StatusRecorder struct {
	http.ResponseWriter
	Status int
}

// recorders pools Observe's status recorders: the recorder escapes as
// the handler's ResponseWriter, so without the pool every request
// allocates one at each tier. A recorder is reused once its handler
// returns, so no handler may keep its writer past its return.
var recorders = sync.Pool{New: func() any { return new(StatusRecorder) }}

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
		sw := recorders.Get().(*StatusRecorder)
		*sw = StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
		next(sw, r)
		status := sw.Status
		*sw = StatusRecorder{}
		recorders.Put(sw)
		dur := time.Since(start)
		ep := stats.Load()
		if ep == nil {
			ep = h.Metrics.endpoint(endpoint)
			stats.Store(ep)
		}
		if ep != nil {
			ep.observe(status, dur.Seconds())
		}
		if tr != nil {
			tr.Finish(endpoint, status)
			h.Tracer.Store(tr)
		}
		h.Slow.Observe(endpoint, r.URL.RawQuery, tr.ID(), status, dur)
	}
}
