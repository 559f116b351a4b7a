package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"compactroute"
	"compactroute/client"
	"compactroute/internal/serve"
)

// discardLogf keeps test output quiet.
func discardLogf(string, ...any) {}

// buildStatic builds a small scheme, saves it to a file, and serves
// the file through New — the exact path the daemon takes at startup.
func buildStatic(t *testing.T, cfg Config) (*Server, *compactroute.Network) {
	t.Helper()
	net := compactroute.RandomNetwork(7, 90, 0.07, compactroute.UniformWeights(1, 6))
	s, err := compactroute.Build(net, compactroute.Config{Kind: compactroute.KindPaper, K: 2, Seed: 11, SFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compactroute.Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = filepath.Join(t.TempDir(), "static.crsc")
	if err := os.WriteFile(cfg.Scheme, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Logf = discardLogf
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1 << 10
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, net
}

func TestServerRoutesLoadedScheme(t *testing.T) {
	srv, net := buildStatic(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g := net.Graph()
	for u := 0; u < net.N(); u += 13 {
		for v := 0; v < net.N(); v += 17 {
			url := fmt.Sprintf("%s/v1/route?src=%d&dst=%d", ts.URL, g.Name(compactroute.NodeID(u)), g.Name(compactroute.NodeID(v)))
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			var rr client.Route
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("route %d→%d: status %d", u, v, resp.StatusCode)
			}
			if !rr.Delivered {
				t.Fatalf("route %d→%d not delivered", u, v)
			}
			if rr.Version != nil {
				t.Fatalf("static route %d→%d carries a version: %+v", u, v, rr)
			}
		}
	}
}

func TestServerConcurrentLoad(t *testing.T) {
	srv, net := buildStatic(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g := net.Graph()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				u := compactroute.NodeID((w*31 + i) % net.N())
				v := compactroute.NodeID((w*17 + i*13) % net.N())
				resp, err := http.Get(fmt.Sprintf("%s/v1/route?src=%d&dst=%d", ts.URL, g.Name(u), g.Name(v)))
				if err != nil {
					errs <- err
					return
				}
				var rr client.Route
				err = json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if !rr.Delivered {
					errs <- fmt.Errorf("route %d→%d not delivered", u, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 16*60 {
		t.Fatalf("stats recorded %d requests, want %d", st.Requests, 16*60)
	}
	if st.Errors != 0 {
		t.Fatalf("stats recorded %d errors", st.Errors)
	}
}

func TestServerRejectsBadInput(t *testing.T) {
	srv, _ := buildStatic(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		q    string
		want int
	}{
		{"/v1/route", http.StatusBadRequest},                               // missing both
		{"/v1/route?src=1", http.StatusBadRequest},                         // missing dst
		{"/v1/route?src=zzz&dst=1", http.StatusBadRequest},                 // unparsable
		{"/v1/route?src=0o17&dst=1", http.StatusBadRequest},                // no octal
		{"/v1/route?src=1&dst=0xFFFFFFFF", http.StatusUnprocessableEntity}, // unknown name
		{"/v1/resolve?src=zzz&dst=1", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.q, resp.StatusCode, tc.want)
		}
	}
}

// TestParseNameBases: documented contract is decimal or 0x-hex — in
// particular ParseUint's base-0 octal reading of leading zeros
// ("010" → 8) must not resurface.
func TestParseNameBases(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"010", 10, true}, // decimal, NOT octal 8
		{"018", 18, true}, // invalid as octal, fine as decimal
		{"16", 16, true},
		{"0x10", 16, true},
		{"0X1F", 31, true},
		{"0xDEADBEEF", 0xdeadbeef, true},
		{"18446744073709551615", ^uint64(0), true},
		{"", 0, false},
		{"zzz", 0, false},
		{"0x", 0, false},
		{"0xzz", 0, false},
		{"0b101", 0, false}, // no binary
		{"0o17", 0, false},  // no octal, explicit prefix included
		{"1_000", 0, false}, // no digit separators
		{"-1", 0, false},
	} {
		got, err := ParseName(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseName(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseName(%q) = %d, want error", tc.in, got)
		}
	}
}

// TestServer503OnCanceledWait: a request whose context is already
// dead is the daemon being saturated or the caller leaving — a
// retryable 503 with Retry-After, never a 422.
func TestServer503OnCanceledWait(t *testing.T) {
	srv, net := buildStatic(t, Config{})
	g := net.Graph()
	h := srv.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET",
		fmt.Sprintf("/v1/route?src=%d&dst=%d", g.Name(0), g.Name(1)), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// An unknown name through the same path stays a 422.
	req = httptest.NewRequest("GET", "/v1/route?src=1&dst=2", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown name: status %d, want 422", rec.Code)
	}
}

// TestMetricOrderingUnreachableStaleness: Config.Metric is applied
// strictly before the pool exists, so a server started with Metric can
// never cache a ShortestCost=0 result (the staleness invariant
// documented in internal/serve).
func TestMetricOrderingUnreachableStaleness(t *testing.T) {
	srv, net := buildStatic(t, Config{Metric: true, Workers: 2, CacheSize: 64})
	if !srv.Scheme().Network().HasMetric() {
		t.Fatal("New(Metric) returned before the metric existed — stale cache entries are reachable")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	g := net.Graph()
	// Route the same cross-node pair twice: the second answer is the
	// cached entry, and it must carry the metric too.
	url := fmt.Sprintf("%s/v1/route?src=%d&dst=%d", ts.URL, g.Name(0), g.Name(1))
	for i, want := range []string{"cold", "cached"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var rr client.Route
		err = json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rr.ShortestCost <= 0 || rr.Stretch < 1 {
			t.Fatalf("%s response %d has no stretch: %+v", want, i, rr)
		}
	}
	st := srv.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("expected one cold miss and one cached hit, got %+v", st)
	}
}

// TestServeEveryRegistryKind: server.New must serve each registry kind
// end-to-end (dynamically, as routed does) — build, answer /v1/route
// with a delivered result, and identify the kind on /v1/healthz.
func TestServeEveryRegistryKind(t *testing.T) {
	for _, kind := range compactroute.Kinds() {
		t.Run(kind, func(t *testing.T) {
			srv, err := New(Config{Scheme: kind, N: 70, K: 2, Seed: 9, SFactor: 0.5,
				Workers: 2, CacheSize: 64, Logf: discardLogf})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			if !srv.Dynamic() {
				t.Fatalf("kind %s did not serve dynamically", kind)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			g := srv.Scheme().Network().Graph()
			url := fmt.Sprintf("%s/v1/route?src=%d&dst=%d", ts.URL, g.Name(0), g.Name(compactroute.NodeID(g.N()-1)))
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			var rr client.Route
			err = json.NewDecoder(resp.Body).Decode(&rr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !rr.Delivered {
				t.Fatalf("kind %s route: status %d, %+v, %v", kind, resp.StatusCode, rr, err)
			}
			if rr.Version == nil || *rr.Version != 0 {
				t.Fatalf("kind %s route version = %v, want 0", kind, rr.Version)
			}

			hresp, err := http.Get(ts.URL + "/v1/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var h struct {
				Kind string `json:"kind"`
			}
			err = json.NewDecoder(hresp.Body).Decode(&h)
			hresp.Body.Close()
			if err != nil || h.Kind != kind {
				t.Fatalf("healthz kind = %q, want %q (%v)", h.Kind, kind, err)
			}
		})
	}
}

// TestNewSchemeFileFallback: a Config.Scheme that is not a kind loads
// as a file; garbage errors mentioning the registry.
func TestNewSchemeFileFallback(t *testing.T) {
	net := compactroute.RandomNetwork(3, 60, 0.1, compactroute.UniformWeights(1, 4))
	s, err := compactroute.Build(net, compactroute.Config{Kind: compactroute.KindPaper, K: 2, Seed: 4, SFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.crsc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := compactroute.Save(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Scheme: path, Workers: 2, CacheSize: 64, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Dynamic() || srv.Scheme().Kind() != "paper" {
		t.Fatalf("New(file) dynamic=%v kind=%q", srv.Dynamic(), srv.Scheme().Kind())
	}
	if _, ok := srv.Version(); ok {
		t.Fatal("static server reports a version")
	}

	_, err = New(Config{Scheme: filepath.Join(t.TempDir(), "nope.crsc"), Logf: discardLogf})
	if err == nil || !strings.Contains(err.Error(), "paper") {
		t.Fatalf("nonexistent file: err = %v, want registry kinds listed", err)
	}
	if _, err := New(Config{Logf: discardLogf}); err == nil {
		t.Fatal("empty Config.Scheme accepted")
	}
}

func TestServerHealthz(t *testing.T) {
	srv, net := buildStatic(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Nodes  int    `json:"nodes"`
		Metric bool   `json:"metric"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Nodes != net.N() {
		t.Fatalf("healthz %+v", h)
	}
	if h.Metric {
		t.Fatal("loaded scheme should start without a metric")
	}
}

// TestResolveEndpoint: /v1/resolve reports name existence and the
// shortest distance without walking a route — unknown names are data,
// not errors.
func TestResolveEndpoint(t *testing.T) {
	srv, net := buildStatic(t, Config{Metric: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	g := net.Graph()

	get := func(src, dst string) client.Resolve {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/resolve?src=%s&dst=%s", ts.URL, src, dst))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resolve %s→%s: status %d", src, dst, resp.StatusCode)
		}
		var rr client.Resolve
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}

	rr := get(fmt.Sprint(g.Name(0)), fmt.Sprint(g.Name(1)))
	if !rr.SrcKnown || !rr.DstKnown || !rr.MetricKnown || rr.ShortestCost <= 0 {
		t.Fatalf("resolve known pair: %+v", rr)
	}
	rr = get(fmt.Sprint(g.Name(0)), "0xFFFFFFFF")
	if !rr.SrcKnown || rr.DstKnown || rr.ShortestCost != 0 {
		t.Fatalf("resolve unknown dst: %+v", rr)
	}
}
