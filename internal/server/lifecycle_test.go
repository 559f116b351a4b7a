package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"compactroute"
	"compactroute/internal/serve"
)

// blockingServer builds a Server whose router parks every route on a
// channel, so tests control exactly when in-flight work completes.
func blockingServer(release <-chan struct{}, started chan<- struct{}) *Server {
	s := &Server{cfg: Config{Workers: 4, CacheSize: -1}, logf: discardLogf,
		done: make(chan struct{}), loopDone: make(chan struct{})}
	s.initRoutes(serve.RouterFunc(func(ctx context.Context, src, dst uint64) (compactroute.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return compactroute.Result{Delivered: true}, nil
		case <-ctx.Done():
			return compactroute.Result{}, ctx.Err()
		}
	}))
	return s
}

// TestDrainRejectsNewWorkCompletesInFlight: Drain flips the server
// into lame-duck mode — new requests (health checks included) answer
// 503 with Retry-After — while requests already admitted run to
// completion, and Drain returns only once they have.
func TestDrainRejectsNewWorkCompletesInFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	srv := blockingServer(release, started)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Park one request inside the router.
	inflightDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/route?src=1&dst=2")
		if err != nil {
			inflightDone <- -1
			return
		}
		resp.Body.Close()
		inflightDone <- resp.StatusCode
	}()
	<-started

	// A drain that cannot wait reports the in-flight request.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(expired); err == nil {
		t.Fatal("Drain with a dead context and work in flight returned nil")
	}

	// Every NEW request is refused — the data path and the health
	// check alike, so a load balancer pulls the node.
	for _, path := range []string{"/v1/route?src=1&dst=2", "/v1/healthz", "/v1/stats", "/v1/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s while draining: %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s while draining: 503 without Retry-After", path)
		}
	}

	// Release the parked request: it completes normally, and a real
	// Drain returns once it has.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	close(release)
	if code := <-inflightDone; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
}

// TestCloseLeaksNoGoroutines: a dynamic server's background rebuild
// worker exits on Close, whether or not it ever ran a rebuild —
// measured the same way the PR 4/5 pool and swapper tests do.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		srv, err := New(Config{Scheme: "fulltable", N: 50, K: 2, Seed: 5, SFactor: 0.5,
			Workers: 2, CacheSize: 64, Logf: discardLogf})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(t.Context())
		// Exercise the loop once so the test covers a worker that has
		// actually run, not only an idle one.
		g := srv.Scheme().Network().Graph()
		if _, err := srv.Mutate(compactroute.MutSetWeight(g.Name(0), firstNeighbor(srv.Scheme().Network()), 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Rebuild(context.Background()); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		srv.Close() // idempotent
	}
	// A server that is Closed without ever being Started must not hang
	// or leak either.
	srv, err := New(Config{Scheme: "fulltable", N: 50, K: 2, Seed: 5, SFactor: 0.5,
		Workers: 2, CacheSize: 64, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, base %d — background workers leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
