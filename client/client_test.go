package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"compactroute"
	"compactroute/client"
	"compactroute/internal/graph"
	"compactroute/internal/memhttp"
	"compactroute/internal/server"
)

func bootShard(t *testing.T) (*client.Client, *server.Server) {
	t.Helper()
	srv, err := server.New(server.Config{
		Scheme: "fulltable", N: 60, K: 2, Seed: 11, SFactor: 0.5,
		Workers: 2, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(t.Context())
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL), srv
}

func TestClientRoundTrips(t *testing.T) {
	c, srv := bootShard(t)
	ctx := context.Background()
	g := srv.Scheme().Network().Graph()
	src, dst := g.Name(0), g.Name(1)

	res, err := c.RouteByName(ctx, src, dst)
	if err != nil || !res.Delivered {
		t.Fatalf("RouteByName: %+v, %v", res, err)
	}
	if res.Version == nil || *res.Version != 0 {
		t.Fatalf("RouteByName version %v, want 0", res.Version)
	}
	if res.ShortestCost <= 0 || res.Stretch < 1 {
		t.Fatalf("RouteByName without stretch (built schemes carry the metric): %+v", res)
	}

	h, err := c.Healthz(ctx)
	if err != nil || h.Status != "ok" || h.Kind != "fulltable" || !h.Dynamic || h.Version != 0 {
		t.Fatalf("Healthz: %+v, %v", h, err)
	}

	// Mutate → two-phase stage/swap, entirely through the client.
	g2 := srv.Scheme().Network().Graph()
	var neighbor uint64
	g2.Neighbors(0, func(e graph.Edge) bool {
		neighbor = g2.Name(e.To)
		return false
	})
	mr, err := c.Mutate(ctx, compactroute.MutSetWeight(src, neighbor, 2), compactroute.MutAddEdge(src, g2.Name(compactroute.NodeID(g2.N()-1)), 9))
	if err != nil || mr.Applied != 2 || mr.Pending != 2 {
		t.Fatalf("Mutate: %+v, %v", mr, err)
	}
	staged, err := c.Stage(ctx)
	if err != nil || staged.ID != 1 {
		t.Fatalf("Stage: %+v, %v", staged, err)
	}
	if h, _ := c.Healthz(ctx); h.Version != 0 {
		t.Fatalf("stage published: serving %d", h.Version)
	}
	if _, err := c.SwapTo(ctx, 99); !client.IsStatus(err, http.StatusConflict) {
		t.Fatalf("SwapTo(99) = %v, want 409", err)
	}
	v, err := c.SwapTo(ctx, staged.ID)
	if err != nil || v.ID != 1 {
		t.Fatalf("SwapTo: %+v, %v", v, err)
	}

	// Plain rebuild paths.
	rr, err := c.Rebuild(ctx)
	if err != nil || rr.Status == "" {
		t.Fatalf("Rebuild: %+v, %v", rr, err)
	}
	wv, err := c.RebuildWait(ctx)
	if err != nil || wv.ID != 1 { // nothing pending: serving version back
		t.Fatalf("RebuildWait: %+v, %v", wv, err)
	}

	st, err := c.Stats(ctx)
	if err != nil || !bytes.Contains(st, []byte(`"Requests"`)) || !bytes.Contains(st, []byte(`"dynamic"`)) {
		t.Fatalf("Stats: %s, %v", st, err)
	}
}

func TestClientErrorTaxonomy(t *testing.T) {
	c, _ := bootShard(t)
	ctx := context.Background()

	// A name the caller invented: API error 422, visible via errors.As.
	_, err := c.RouteByName(ctx, 0xFFFFFFFF, 1)
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown name: %v, want *Error 422", err)
	}
	if apiErr.Message == "" || apiErr.Error() == "" {
		t.Fatalf("API error without message: %+v", apiErr)
	}
	if !client.IsStatus(err, http.StatusUnprocessableEntity) || client.IsStatus(err, http.StatusConflict) {
		t.Fatalf("IsStatus misclassified %v", err)
	}

	// An invalid mutation batch: 422, nothing applied.
	if _, err := c.Mutate(ctx, compactroute.MutAddEdge(0xdeaddead, 0xdeadbeef, 1)); !client.IsStatus(err, 422) {
		t.Fatalf("invalid mutation: %v, want 422", err)
	}

	// A server that is not there: transport error, NOT an *Error.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	gone := client.New(dead.URL)
	if _, err := gone.Healthz(ctx); err == nil || errors.As(err, &apiErr) {
		t.Fatalf("dead server: %v, want transport error", err)
	}
}

// TestRouteByNameAllocs pins a client read's allocations over an
// in-memory transport that serves each request with a shard's handler
// in the caller's goroutine, so every allocation counted is the
// client's, http.Client's, the recorder's or the shard's own (43 when
// the client formatted, parsed and reflected per read, 25 while the
// shard's observability boundary allocated its status recorder).
func TestRouteByNameAllocs(t *testing.T) {
	if memhttp.RaceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	srv, err := server.New(server.Config{Scheme: compactroute.KindPaper, N: 256, K: 3, Seed: 5, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	g := srv.Scheme().Network().Graph()
	c := client.New("http://shard.test")
	c.HTTP = memhttp.Client(srv.Handler())
	ctx := context.Background()
	q := 0
	allocs := testing.AllocsPerRun(1000, func() {
		q++
		src, dst := g.Name(compactroute.NodeID(q%256)), g.Name(compactroute.NodeID((q*131+17)%256))
		if res, err := c.RouteByName(ctx, src, dst); err != nil || res.Version == nil {
			t.Fatalf("RouteByName: %+v, %v", res, err)
		}
	})
	if allocs > 24 {
		t.Fatalf("RouteByName: %.2f allocations per read, want at most 24", allocs)
	}
}

// cannedServer answers every request on every connection with resp.
// It reads nothing but each request's blank line and allocates nothing
// per request, so an allocation count of a client read against it is
// the client's alone.
func cannedServer(t *testing.T, resp []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	end := []byte("\r\n\r\n")
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				buf := make([]byte, 4096)
				n := 0
				for n < len(buf) {
					m, err := nc.Read(buf[n:])
					if err != nil {
						return
					}
					n += m
					for i := bytes.Index(buf[:n], end); i >= 0; i = bytes.Index(buf[:n], end) {
						if _, err := nc.Write(resp); err != nil {
							return
						}
						n = copy(buf, buf[i+len(end):n])
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestRouteByNameLoopbackAllocs pins a client read's allocations on
// New's own transport over a real socket, against a listener that
// answers one canned route body (49 on net/http's Transport, whose
// per-connection reader and writer goroutines carried each round
// trip). Of the 27, the transport's own are 3: the cancel hook's two
// and the body; the rest are Request.Write, http.ReadResponse,
// http.Client and RouteByName.
func TestRouteByNameLoopbackAllocs(t *testing.T) {
	if memhttp.RaceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	v := uint64(7)
	body, err := client.Route{Delivered: true, Cost: 12.5, Hops: 4, HeaderBits: 96, ShortestCost: 10, Stretch: 1.25, Version: &v}.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	c := client.New(cannedServer(t, resp))
	t.Cleanup(c.HTTP.CloseIdleConnections)
	ctx := context.Background()
	q := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		q++
		if res, err := c.RouteByName(ctx, q, q*131+17); err != nil || res.Version == nil || *res.Version != v {
			t.Fatalf("RouteByName: %+v, %v", res, err)
		}
	})
	if allocs > 27 {
		t.Fatalf("RouteByName: %.2f allocations per read, want at most 27", allocs)
	}
}
