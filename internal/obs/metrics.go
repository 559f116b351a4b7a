package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"compactroute/internal/stats"
)

// Label is one metric dimension.
type Label struct {
	Name  string
	Value string
}

// Point is one sample line of a family. Suffix is appended to the
// family name ("_bucket", "_sum", "_count", or empty for plain
// counter/gauge samples).
type Point struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Family is one metric family in the exposition: a name, HELP text,
// TYPE (counter, gauge, summary, histogram), and its sample points.
type Family struct {
	Name   string
	Help   string
	Type   string
	Points []Point
}

// Counter builds a single-sample counter family.
func Counter(name, help string, v float64, labels ...Label) Family {
	return Family{Name: name, Help: help, Type: "counter",
		Points: []Point{{Labels: labels, Value: v}}}
}

// Gauge builds a single-sample gauge family.
func Gauge(name, help string, v float64, labels ...Label) Family {
	return Family{Name: name, Help: help, Type: "gauge",
		Points: []Point{{Labels: labels, Value: v}}}
}

// WriteText renders families in the Prometheus text exposition
// format (version 0.0.4). Output order is exactly the family order
// given — callers build families deterministically so scrapes diff
// cleanly.
func WriteText(w io.Writer, fams []Family) error {
	var b strings.Builder
	for _, f := range fams {
		if len(f.Points) == 0 {
			continue
		}
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.Help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Type)
		b.WriteByte('\n')
		for _, p := range f.Points {
			b.WriteString(f.Name)
			b.WriteString(p.Suffix)
			if len(p.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range p.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Name)
					b.WriteString(`="`)
					b.WriteString(escapeLabel(l.Value))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatValue(p.Value))
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// StretchBounds are the fixed upper bounds of the per-kind stretch
// histogram. Stretch is ≥ 1 by construction, but the kinds' proven
// bounds differ and most exceed the last bucket: fulltable is 1,
// paper is c·k (the core tests pin 14k), apcover is linear in k, tz
// is 4k−3 and landmark has no worst-case bound. A served stretch
// above 8 lands in +Inf, whatever its kind's bound.
var StretchBounds = []float64{1.0, 1.05, 1.1, 1.25, 1.5, 2, 3, 5, 8}

// Hist is a fixed-bound cumulative histogram. Counts are monotonic
// for the life of the process, making it a well-formed Prometheus
// histogram.
type Hist struct {
	bounds []float64
	mu     sync.Mutex
	counts []uint64
	count  uint64
	sum    float64
}

// NewHist returns a histogram over the given sorted upper bounds.
func NewHist(bounds []float64) *Hist {
	return &Hist{bounds: bounds, counts: make([]uint64, len(bounds))}
}

// Observe adds one observation.
func (h *Hist) Observe(v float64) {
	h.mu.Lock()
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Points renders the histogram's cumulative buckets plus _sum and
// _count, each carrying the given labels.
func (h *Hist) Points(labels []Label) []Point {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	count, sum := h.count, h.sum
	h.mu.Unlock()
	pts := make([]Point, 0, len(counts)+3)
	for i, ub := range h.bounds {
		pts = append(pts, Point{Suffix: "_bucket",
			Labels: append(append([]Label(nil), labels...), Label{"le", formatValue(ub)}),
			Value:  float64(counts[i])})
	}
	pts = append(pts, Point{Suffix: "_bucket",
		Labels: append(append([]Label(nil), labels...), Label{"le", "+Inf"}),
		Value:  float64(count)})
	pts = append(pts, Point{Suffix: "_sum", Labels: labels, Value: sum})
	pts = append(pts, Point{Suffix: "_count", Labels: labels, Value: float64(count)})
	return pts
}

// Window is a bounded sliding window of recent observations with
// monotonic lifetime count and sum. Quantiles and display buckets
// are computed over the window via stats.Sample at scrape time.
type Window struct {
	mu     sync.Mutex
	buf    []float64
	n      int
	filled bool
	count  uint64
	sum    float64
}

const windowSize = 1024

// Observe adds one observation to the window.
func (w *Window) Observe(v float64) {
	w.mu.Lock()
	if w.buf == nil {
		w.buf = make([]float64, windowSize)
	}
	w.buf[w.n] = v
	w.n++
	if w.n == len(w.buf) {
		w.n, w.filled = 0, true
	}
	w.count++
	w.sum += v
	w.mu.Unlock()
}

// Snapshot returns the windowed observations (unordered) plus the
// lifetime count and sum.
func (w *Window) Snapshot() (xs []float64, count uint64, sum float64) {
	w.mu.Lock()
	if w.filled {
		xs = append([]float64(nil), w.buf...)
	} else {
		xs = append([]float64(nil), w.buf[:w.n]...)
	}
	count, sum = w.count, w.sum
	w.mu.Unlock()
	return xs, count, sum
}

// Metrics is the live per-request accumulator a serving tier feeds
// from its HTTP middleware: status-class counters and latency
// windows per endpoint, plus a per-kind stretch histogram sampled
// from served routes.
type Metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
	stretch   map[string]*Hist
}

// statusClasses are the exposition's status classes, in label order.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx", "other"}

// endpointStats is one endpoint's series. Its status counts are
// atomics, so a request counts itself without a lock shared by the
// tier; a class is exposed once it has counted a request.
type endpointStats struct {
	classes [len(statusClasses)]atomic.Uint64
	lat     Window
}

// observe records one finished request.
func (ep *endpointStats) observe(status int, seconds float64) {
	ep.classes[classIndex(status)].Add(1)
	ep.lat.Observe(seconds)
}

// NewMetrics returns an empty accumulator.
func NewMetrics() *Metrics {
	return &Metrics{
		endpoints: make(map[string]*endpointStats),
		stretch:   make(map[string]*Hist),
	}
}

// classIndex maps an HTTP status to the index of its exposition class
// label in statusClasses.
func classIndex(status int) int {
	if status >= 200 && status < 600 {
		return status/100 - 2
	}
	return len(statusClasses) - 1
}

// endpoint returns an endpoint's series, creating them on first use
// (HTTP.Observe resolves them once per wrapped handler); nil on a nil
// Metrics.
func (m *Metrics) endpoint(name string) *endpointStats {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.endpoints[name]
	if ep == nil {
		ep = &endpointStats{}
		m.endpoints[name] = ep
	}
	return ep
}

// ObserveStretch records the stretch of one served route with a
// known metric, labeled by scheme kind.
func (m *Metrics) ObserveStretch(kind string, stretch float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.stretch[kind]
	if h == nil {
		h = NewHist(StretchBounds)
		m.stretch[kind] = h
	}
	m.mu.Unlock()
	h.Observe(stretch)
}

// Families renders the request-level families: per-endpoint status
// counters, latency summaries (window quantiles over monotonic
// _sum/_count), windowed latency buckets via stats.Sample, and the
// per-kind stretch histogram. Map iteration is sorted so scrapes are
// deterministic.
func (m *Metrics) Families() []Family {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	epNames := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		epNames = append(epNames, name)
	}
	sort.Strings(epNames)
	eps := make([]*endpointStats, len(epNames))
	for i, name := range epNames {
		eps[i] = m.endpoints[name]
	}
	kinds := make([]string, 0, len(m.stretch))
	for kind := range m.stretch {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	hists := make([]*Hist, len(kinds))
	for i, kind := range kinds {
		hists[i] = m.stretch[kind]
	}
	m.mu.Unlock()

	reqs := Family{Name: MetricRequestsTotal, Type: "counter",
		Help: "requests served, by endpoint and status class"}
	lat := Family{Name: MetricRequestLatency, Type: "summary",
		Help: "request latency: window quantiles over monotonic totals"}
	win := Family{Name: MetricRequestLatencyWindow, Type: "histogram",
		Help: fmt.Sprintf("request latency over the last %d requests (window buckets, not cumulative across scrapes)", windowSize)}
	for i, name := range epNames {
		ep := eps[i]
		for j, c := range statusClasses {
			if n := ep.classes[j].Load(); n > 0 {
				reqs.Points = append(reqs.Points, Point{
					Labels: []Label{{"endpoint", name}, {"class", c}},
					Value:  float64(n)})
			}
		}
		xs, count, sum := ep.lat.Snapshot()
		var s stats.Sample
		for _, x := range xs {
			s.Add(x)
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			v := math.NaN()
			if s.N() > 0 {
				v = s.Percentile(q * 100)
			}
			lat.Points = append(lat.Points, Point{
				Labels: []Label{{"endpoint", name}, {"quantile", formatValue(q)}},
				Value:  v})
		}
		lat.Points = append(lat.Points,
			Point{Suffix: "_sum", Labels: []Label{{"endpoint", name}}, Value: sum},
			Point{Suffix: "_count", Labels: []Label{{"endpoint", name}}, Value: float64(count)})
		if s.N() > 0 {
			cum := 0.0
			for _, bk := range s.Buckets(6) {
				cum += float64(bk.Count)
				win.Points = append(win.Points, Point{Suffix: "_bucket",
					Labels: []Label{{"endpoint", name}, {"le", formatValue(bk.Hi)}},
					Value:  cum})
			}
			win.Points = append(win.Points,
				Point{Suffix: "_bucket", Labels: []Label{{"endpoint", name}, {"le", "+Inf"}}, Value: float64(s.N())},
				Point{Suffix: "_sum", Labels: []Label{{"endpoint", name}}, Value: s.Mean() * float64(s.N())},
				Point{Suffix: "_count", Labels: []Label{{"endpoint", name}}, Value: float64(s.N())})
		}
	}
	stretch := Family{Name: MetricRouteStretch, Type: "histogram",
		Help: "stretch of served routes with a known metric, by scheme kind"}
	for i, kind := range kinds {
		stretch.Points = append(stretch.Points, hists[i].Points([]Label{{"kind", kind}})...)
	}
	return []Family{reqs, lat, win, stretch}
}
