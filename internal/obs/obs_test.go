package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerSamplesOneInN(t *testing.T) {
	tr := NewTracer(16, 4)
	traced := 0
	for i := 0; i < 400; i++ {
		if x := tr.Begin(""); x != nil {
			traced++
			if !validID(x.ID()) || len(x.ID()) != 16 {
				t.Fatalf("minted ID %q is not 16 valid chars", x.ID())
			}
		}
	}
	if traced != 100 {
		t.Fatalf("1-in-4 sampling traced %d of 400", traced)
	}
	if tr.Sampled() != 100 {
		t.Fatalf("Sampled() = %d, want 100", tr.Sampled())
	}
}

func TestTracerPropagatedIDForcesTrace(t *testing.T) {
	tr := NewTracer(16, 0) // sampling off: only propagation traces
	if x := tr.Begin(""); x != nil {
		t.Fatal("sampling off minted a trace without a propagated ID")
	}
	x := tr.Begin("upstream-id_01")
	if x == nil || x.ID() != "upstream-id_01" {
		t.Fatalf("propagated ID not adopted: %v", x)
	}
	// Hostile headers are treated as absent, never echoed.
	for _, bad := range []string{"", "has space", "has\nnewline", `quote"`, strings.Repeat("x", 65)} {
		if x := tr.Begin(bad); x != nil {
			t.Fatalf("invalid propagated ID %q began a trace", bad)
		}
	}
}

func TestTracerMintsDistinctIDs(t *testing.T) {
	tr := NewTracer(4, 1)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := tr.Begin("").ID()
		if seen[id] {
			t.Fatalf("duplicate minted ID %q", id)
		}
		seen[id] = true
	}
}

func TestRingEvictsOldestAndFindsNewest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		tr := newTrace(fmt.Sprintf("id-%d", i))
		tr.Finish("/route", 200+i)
		r.Store(tr)
	}
	if _, ok := r.Get("id-0"); ok {
		t.Fatal("evicted trace still retrievable")
	}
	if _, ok := r.Get("id-1"); ok {
		t.Fatal("evicted trace still retrievable")
	}
	if v, ok := r.Get("id-5"); !ok || v.Status != 205 {
		t.Fatalf("newest trace: %+v, %v", v, ok)
	}
	recent := r.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("Recent returned %d of 4 retained", len(recent))
	}
	if recent[0].ID != "id-5" || recent[3].ID != "id-2" {
		t.Fatalf("Recent order: %s … %s, want id-5 … id-2", recent[0].ID, recent[3].ID)
	}
	// A re-stored duplicate ID resolves to the newest copy.
	dup := newTrace("id-5")
	dup.Finish("/route", 299)
	r.Store(dup)
	if v, _ := r.Get("id-5"); v.Status != 299 {
		t.Fatalf("duplicate ID resolved to status %d, want the newest 299", v.Status)
	}
}

func TestTraceBoundsAndView(t *testing.T) {
	tr := newTrace("abc")
	for i := 0; i < maxSpans+10; i++ {
		tr.Event("layer", "ev", "")
	}
	for i := 0; i < maxHops+10; i++ {
		tr.Hop(uint64(i), i)
	}
	tr.Finish("/route", 200)
	v := tr.View()
	if len(v.Spans) != maxSpans || len(v.Path) != maxHops || !v.Truncated {
		t.Fatalf("bounds: %d spans %d hops truncated=%v", len(v.Spans), len(v.Path), v.Truncated)
	}
	if v.ID != "abc" || v.Endpoint != "/route" || v.Status != 200 || v.DurNs <= 0 {
		t.Fatalf("view: %+v", v)
	}
	// Nil traces swallow everything (the untraced path).
	var nilTr *Trace
	nilTr.Event("l", "n", "")
	nilTr.Hop(1, 2)
	nilTr.Finish("/x", 1)
	if nilTr.ID() != "" {
		t.Fatal("nil trace has an ID")
	}
}

func TestTraceConcurrentRecording(t *testing.T) {
	tr := newTrace("conc")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Hop(uint64(w), i)
				tr.Event("layer", "ev", "")
				_ = tr.View()
			}
		}(w)
	}
	wg.Wait()
	if v := tr.View(); len(v.Spans) != maxSpans || len(v.Path) != 200 {
		t.Fatalf("concurrent recording lost entries: %d spans %d hops", len(v.Spans), len(v.Path))
	}
}

func TestContextHelpers(t *testing.T) {
	ctx := context.Background()
	Mark(ctx, "l", "n", "") // no trace in ctx: no-op, no panic
	tr := newTrace("ctx")
	ctx = WithTrace(ctx, tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext lost the trace")
	}
	Mark(ctx, "layer", "name", "detail")
	SpanSince(ctx, "layer", "span", "", time.Now().Add(-time.Millisecond))
	SpanN(ctx, "layer", "spann", "", time.Now(), 7)
	v := tr.View()
	if len(v.Spans) != 3 || v.Spans[1].DurNs <= 0 || v.Spans[2].N != 7 {
		t.Fatalf("ctx helpers recorded %+v", v.Spans)
	}
	// WithTrace(nil) shadows an outer trace: advisory legs stay silent.
	inner := WithTrace(ctx, nil)
	Mark(inner, "layer", "leak", "")
	if len(tr.View().Spans) != 3 {
		t.Fatal("nil-shadowed context still recorded onto the outer trace")
	}
}

func TestMetricsTextRoundTripAndMonotonicity(t *testing.T) {
	m := NewMetrics()
	scrape := func() map[string]*ParsedFamily {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteText(&buf, m.Families()); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseText(buf.String())
		if err != nil {
			t.Fatalf("scrape does not parse: %v\n%s", err, buf.String())
		}
		return fams
	}
	counterValue := func(fams map[string]*ParsedFamily, endpoint, class string) float64 {
		for _, p := range fams[MetricRequestsTotal].Points {
			if p.Labels["endpoint"] == endpoint && p.Labels["class"] == class {
				return p.Value
			}
		}
		return -1
	}

	m.endpoint("/route").observe(200, 0.001)
	m.endpoint("/route").observe(200, 0.002)
	m.endpoint("/route").observe(503, 0.0001)
	m.ObserveStretch("tz", 1.3)
	m.ObserveStretch("tz", 2.5)
	first := scrape()
	if got := counterValue(first, "/route", "2xx"); got != 2 {
		t.Fatalf("2xx counter = %v, want 2", got)
	}
	if got := counterValue(first, "/route", "5xx"); got != 1 {
		t.Fatalf("5xx counter = %v, want 1", got)
	}
	if f := first[MetricRouteStretch]; f == nil || f.Type != "histogram" {
		t.Fatalf("stretch family: %+v", f)
	}

	m.endpoint("/route").observe(200, 0.003)
	m.ObserveStretch("tz", 1.0)
	second := scrape()
	for _, class := range []string{"2xx", "5xx"} {
		a, b := counterValue(first, "/route", class), counterValue(second, "/route", class)
		if b < a {
			t.Fatalf("%s counter went backwards across scrapes: %v → %v", class, a, b)
		}
	}
	if got := counterValue(second, "/route", "2xx"); got != 3 {
		t.Fatalf("2xx counter after third request = %v, want 3", got)
	}
}

func TestStatusClass(t *testing.T) {
	for status, want := range map[int]string{
		200: "2xx", 204: "2xx", 302: "3xx", 409: "4xx", 422: "4xx",
		502: "5xx", 503: "5xx", 199: "other", 601: "other",
	} {
		if got := statusClasses[classIndex(status)]; got != want {
			t.Errorf("class of %d = %q, want %q", status, got, want)
		}
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	for name, text := range map[string]string{
		"sample outside family": "compactroute_x_total 1\n",
		"bad value":             "# TYPE compactroute_x_total counter\ncompactroute_x_total one\n",
		"bad type":              "# TYPE compactroute_x_total banana\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" + `h_bucket{le="+Inf"} 5` + "\nh_count 5\n",
		"inf bucket != count": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 4` + "\nh_count 5\n",
		"missing inf bucket": "# TYPE h histogram\n" +
			`h_bucket{le="2"} 4` + "\nh_count 4\n",
	} {
		if _, err := ParseText(text); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, text)
		}
	}
}

func TestJournalBoundedWithMonotonicCounts(t *testing.T) {
	j := NewJournal(3)
	for i := 0; i < 5; i++ {
		j.Record("swap", fmt.Sprintf("v%d", i))
	}
	j.Record("eject", "shard 2")
	evs := j.Events()
	if len(evs) != 3 {
		t.Fatalf("journal retained %d events, want 3", len(evs))
	}
	if evs[0].Seq >= evs[1].Seq || evs[2].Kind != "eject" {
		t.Fatalf("journal order: %+v", evs)
	}
	f := j.CountFamily()
	counts := map[string]float64{}
	for _, p := range f.Points {
		counts[p.Labels[0].Value] = p.Value
	}
	// Lifetime counts survive eviction.
	if counts["swap"] != 5 || counts["eject"] != 1 {
		t.Fatalf("lifetime counts %v, want swap=5 eject=1", counts)
	}
}

func TestSlowLogThresholdAndRefused(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 50*time.Millisecond)
	l.Observe("/route", "src=1", "id1", 200, 10*time.Millisecond) // fast 2xx: silent
	l.Observe("/route", "src=2", "id2", 200, 60*time.Millisecond) // slow
	l.Observe("/route", "src=3", "id3", 503, time.Millisecond)    // refused
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("slow log wrote %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var e SlowEntry
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("slow log line is not JSON: %v", err)
	}
	if e.Reason != "slow" || e.TraceID != "id2" {
		t.Fatalf("first entry %+v, want slow/id2", e)
	}
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil || e.Reason != "refused" || e.Status != 503 {
		t.Fatalf("second entry %+v (%v), want refused/503", e, err)
	}
	// Nil receiver (log disabled) is a no-op.
	var off *SlowLog
	off.Observe("/route", "", "", 503, time.Hour)
	if NewSlowLog(nil, 0) != nil {
		t.Fatal("NewSlowLog(nil) should disable the log")
	}
}

func TestHTTPObserveMintsAndAdoptsTraces(t *testing.T) {
	o := &HTTP{Tracer: NewTracer(8, 1), Metrics: NewMetrics()}
	h := o.Observe("/route", func(w http.ResponseWriter, r *http.Request) {
		Mark(r.Context(), "pool", "compute", "")
		w.WriteHeader(http.StatusOK)
	})

	// Sampled request: a fresh ID is minted and echoed.
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/v1/route?src=1&dst=2", nil))
	id := rec.Header().Get(Header)
	if id == "" {
		t.Fatal("sampled request did not echo a trace ID")
	}
	v, ok := o.Tracer.Get(id)
	if !ok || v.Endpoint != "/route" || v.Status != 200 {
		t.Fatalf("stored trace %+v, %v", v, ok)
	}
	if len(v.Spans) != 1 || v.Spans[0].Layer != "pool" {
		t.Fatalf("handler span not recorded: %+v", v.Spans)
	}

	// Propagated ID: adopted verbatim, stored under the same ID.
	req := httptest.NewRequest("GET", "/v1/route", nil)
	req.Header.Set(Header, "front-door-id-1")
	rec = httptest.NewRecorder()
	h(rec, req)
	if rec.Header().Get(Header) != "front-door-id-1" {
		t.Fatalf("propagated ID not echoed: %q", rec.Header().Get(Header))
	}
	if _, ok := o.Tracer.Get("front-door-id-1"); !ok {
		t.Fatal("propagated trace not stored under its ID")
	}
}
