package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"compactroute"
)

// TestVersionedAndLegacyPathsAgree pins the /v1 surface: the
// status-code mapping (200/202/400/409/422) holds on route, healthz,
// stats, mutate, and rebuild, and every unversioned path answers 404.
func TestVersionedAndLegacyPathsAgree(t *testing.T) {
	static, _ := buildStatic(t, Config{})
	tsStatic := httptest.NewServer(static.Handler())
	defer tsStatic.Close()
	dyn, net := buildDynamic(t, "fulltable", 60, 0)
	tsDyn := httptest.NewServer(dyn.Handler())
	defer tsDyn.Close()
	g := net.Graph()

	do := func(ts *httptest.Server, method, path, body string) (*http.Response, string) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(out)
	}

	goodRoute := fmt.Sprintf("/route?src=%d&dst=%d", g.Name(0), g.Name(1))
	mut := `{"op":"setweight","u":` + fmt.Sprint(g.Name(0)) + `,"v":` + fmt.Sprint(firstNeighbor(net)) + `,"w":2}`
	for _, tc := range []struct {
		name   string
		ts     *httptest.Server
		method string
		path   string // below /v1
		body   string
		want   int
	}{
		{"route ok", tsDyn, "GET", goodRoute, "", http.StatusOK},
		{"route unknown name 422", tsDyn, "GET", "/route?src=1&dst=2", "", http.StatusUnprocessableEntity},
		{"route bad name 400", tsDyn, "GET", "/route?src=zz&dst=1", "", http.StatusBadRequest},
		{"healthz ok", tsDyn, "GET", "/healthz", "", http.StatusOK},
		{"stats ok", tsDyn, "GET", "/stats", "", http.StatusOK},
		{"mutate ok", tsDyn, "POST", "/mutate", mut, http.StatusOK},
		{"mutate invalid 422", tsDyn, "POST", "/mutate", `{"op":"setweight","u":3405691582,"v":1,"w":2}`, http.StatusUnprocessableEntity},
		{"mutate static 409", tsStatic, "POST", "/mutate", mut, http.StatusConflict},
		{"rebuild static 409", tsStatic, "POST", "/rebuild", "", http.StatusConflict},
		{"rebuild async 202", tsDyn, "POST", "/rebuild?wait=0", "", http.StatusAccepted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if resp, body := do(tc.ts, tc.method, "/v1"+tc.path, tc.body); resp.StatusCode != tc.want {
				t.Fatalf("/v1%s: %d %s, want %d", tc.path, resp.StatusCode, body, tc.want)
			}
		})
	}

	// Only /v1 is served.
	for _, tc := range []struct{ method, path string }{
		{"GET", goodRoute},
		{"GET", "/healthz"},
		{"GET", "/stats"},
		{"POST", "/mutate"},
		{"POST", "/rebuild"},
		{"GET", "/resolve?src=1&dst=2"},
		{"POST", "/swap"},
	} {
		resp, _ := do(tsDyn, tc.method, tc.path, mut)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: %d, want 404 (only /v1 is served)", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestStatusForMapping: every typed error maps to its pinned status
// code via errors.Is — 422 for names the caller invented, 502 for
// routes blocked by the transient fault overlay, 503 for
// saturation/cancellation, 409 for static-scheme mutation and
// coordinated-swap version skew, 500 for anything that would be a
// scheme invariant violation.
func TestStatusForMapping(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("route: %w", compactroute.ErrUnknownName), http.StatusUnprocessableEntity},
		{fmt.Errorf("route: %w", compactroute.ErrUnknownLabel), http.StatusUnprocessableEntity},
		{fmt.Errorf("serve: route 1→2: %w", compactroute.ErrUnreachable), http.StatusBadGateway},
		{fmt.Errorf("serve: %w: %w", compactroute.ErrSaturated, context.Canceled), http.StatusServiceUnavailable},
		{fmt.Errorf("serve: %w", context.Canceled), http.StatusServiceUnavailable},
		{fmt.Errorf("serve: %w", context.DeadlineExceeded), http.StatusServiceUnavailable},
		{fmt.Errorf("server: mutate: %w", ErrStatic), http.StatusConflict},
		{fmt.Errorf("dynamic: commit version 7: %w", compactroute.ErrVersionSkew), http.StatusConflict},
		{fmt.Errorf("sim: invariant violated"), http.StatusInternalServerError},
	} {
		if got := StatusFor(tc.err); got != tc.want {
			t.Errorf("StatusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
