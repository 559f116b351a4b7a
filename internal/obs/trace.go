package obs

import (
	"context"
	"sync"
	"time"
)

// Bounds on what one trace may accumulate. A trace that overflows
// keeps its first maxSpans spans / maxHops hops and sets Truncated —
// dropping the tail keeps the record bounded without losing the
// layers that ran first.
const (
	maxSpans = 64
	maxHops  = 512
)

// Span is one recorded layer event: either a point event (DurNs 0)
// or a timed span. N carries a layer-specific count (hops walked,
// shard index, blocked legs) so spans stay schema-free.
type Span struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	StartNs int64  `json:"startNs"`
	DurNs   int64  `json:"durNs,omitempty"`
	N       int64  `json:"n,omitempty"`
}

// HopStep is one forwarding decision of a scheme walk: the node the
// packet was at (external name) and the port it chose.
type HopStep struct {
	Node uint64 `json:"node"`
	Port int    `json:"port"`
}

// TraceView is the immutable JSON form of a finished (or in-flight)
// trace, as served on /v1/trace/{id}.
type TraceView struct {
	ID        string    `json:"id"`
	StartNs   int64     `json:"startNs"`
	DurNs     int64     `json:"durNs"`
	Endpoint  string    `json:"endpoint,omitempty"`
	Status    int       `json:"status,omitempty"`
	Spans     []Span    `json:"spans"`
	Path      []HopStep `json:"path,omitempty"`
	Truncated bool      `json:"truncated,omitempty"`
}

// Trace accumulates the spans and hop path of one sampled request.
// It is safe for concurrent use, so a layer that fans a request out
// to goroutines may record from any of them. All recording methods
// are nil-safe so call sites never branch.
type Trace struct {
	id    string
	start time.Time

	mu        sync.Mutex
	spans     []Span
	path      []HopStep
	endpoint  string
	status    int
	durNs     int64
	truncated bool
}

func newTrace(id string) *Trace {
	// Preallocated capacities cover a typical request (a handful of
	// spans, a few dozen hops) so recording appends without growth
	// reallocations — the dominant allocation cost of a traced request.
	return &Trace{
		id:    id,
		start: time.Now(),
		spans: make([]Span, 0, 8),
		path:  make([]HopStep, 0, 32),
	}
}

// ID returns the trace's request ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Event records a point event for a layer.
//
//go:noinline
func (t *Trace) Event(layer, name, detail string) {
	if t == nil {
		return
	}
	t.record(Span{Layer: layer, Name: name, Detail: detail,
		StartNs: time.Since(t.start).Nanoseconds()})
}

// SpanSince records a timed span that began at start.
//
//go:noinline
func (t *Trace) SpanSince(layer, name, detail string, start time.Time) {
	if t == nil {
		return
	}
	t.record(Span{Layer: layer, Name: name, Detail: detail,
		StartNs: start.Sub(t.start).Nanoseconds(),
		DurNs:   time.Since(start).Nanoseconds()})
}

// SpanN records a timed span with a layer-specific count.
//
//go:noinline
func (t *Trace) SpanN(layer, name, detail string, start time.Time, n int64) {
	if t == nil {
		return
	}
	t.record(Span{Layer: layer, Name: name, Detail: detail,
		StartNs: start.Sub(t.start).Nanoseconds(),
		DurNs:   time.Since(start).Nanoseconds(), N: n})
}

// Hop records one forwarding decision of the scheme walk.
//
//go:noinline
func (t *Trace) Hop(node uint64, port int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.path) < maxHops {
		t.path = append(t.path, HopStep{Node: node, Port: port})
	} else {
		t.truncated = true
	}
	t.mu.Unlock()
}

func (t *Trace) record(s Span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.truncated = true
	}
	t.mu.Unlock()
}

// Finish stamps the request's endpoint, HTTP status, and total
// duration. Recording after Finish is allowed (late goroutines) but
// the duration no longer moves.
func (t *Trace) Finish(endpoint string, status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.endpoint = endpoint
	t.status = status
	t.durNs = time.Since(t.start).Nanoseconds()
	t.mu.Unlock()
}

// View snapshots the trace into its JSON form.
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{}
	}
	t.mu.Lock()
	v := TraceView{
		ID:        t.id,
		StartNs:   t.start.UnixNano(),
		DurNs:     t.durNs,
		Endpoint:  t.endpoint,
		Status:    t.status,
		Spans:     append([]Span(nil), t.spans...),
		Path:      append([]HopStep(nil), t.path...),
		Truncated: t.truncated,
	}
	t.mu.Unlock()
	return v
}

// traceKey is the context key for the active trace.
type traceKey struct{}

// WithTrace returns a context carrying tr. Passing a nil tr
// deliberately shadows any outer trace — used to keep an advisory
// walk (the best-of-both reverse direction) from interleaving hops
// into the primary walk's path.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// FromContext returns the active trace, or nil when the request is
// not sampled. Noinline: budgeted hot-path functions call this and
// must not inherit its interface plumbing as escape sites.
//
//go:noinline
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// Mark records a point event on the context's trace, if any. This
// is the form budgeted hot-path functions use: one noinline call,
// value-typed arguments, no allocation when untraced.
//
//go:noinline
func Mark(ctx context.Context, layer, name, detail string) {
	if tr, _ := ctx.Value(traceKey{}).(*Trace); tr != nil {
		tr.Event(layer, name, detail)
	}
}

// SpanSince records a timed span on the context's trace, if any.
//
//go:noinline
func SpanSince(ctx context.Context, layer, name, detail string, start time.Time) {
	if tr, _ := ctx.Value(traceKey{}).(*Trace); tr != nil {
		tr.SpanSince(layer, name, detail, start)
	}
}

// SpanN records a timed, counted span on the context's trace, if any.
//
//go:noinline
func SpanN(ctx context.Context, layer, name, detail string, start time.Time, n int64) {
	if tr, _ := ctx.Value(traceKey{}).(*Trace); tr != nil {
		tr.SpanN(layer, name, detail, start, n)
	}
}
