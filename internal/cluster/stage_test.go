//go:build unix

package cluster

import (
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"compactroute"
	"compactroute/client"
	"compactroute/internal/server"
)

// TestHealthAnswersWhileShardsStage: no health or scrape read waits on
// a shard's staging build. Each shard persists its versions, and the
// test puts a FIFO where version 1's manifest temp file goes, so the
// stage of a coordinated cut-over parks inside the build path (PreSwap
// → Store.Save) until the test reads the FIFO: a build that outlasts
// any probe deadline. While both shards are parked, each shard's
// /v1/healthz answers within the probe deadline, a probe pass ejects
// nothing, and the front-door's /v1/healthz reports ok.
func TestHealthAnswersWhileShardsStage(t *testing.T) {
	const probe = time.Second // the default health interval, hence probe deadline
	var (
		urls, fifos, graphs []string
		servers             []*server.Server
	)
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		fifo := filepath.Join(dir, "v00000001.json.tmp")
		if err := syscall.Mkfifo(fifo, 0o600); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		cfg := shardConfig(40)
		cfg.SnapshotDir = dir
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(t.Context())
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls, servers = append(urls, ts.URL), append(servers, srv)
		fifos = append(fifos, fifo)
		graphs = append(graphs, filepath.Join(dir, "v00000001.graph"))
	}
	c, err := New(Options{Shards: urls, HealthEvery: probe, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Close)
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)
	// Reading a FIFO to its end lets the parked stage finish. The
	// cleanup (run before the servers close, which wait for their
	// in-flight requests) releases the stages if the test fails first.
	var once sync.Once
	release := func() {
		once.Do(func() {
			for _, p := range fifos {
				if f, err := os.Open(p); err == nil {
					io.Copy(io.Discard, f)
					f.Close()
				}
			}
		})
	}
	t.Cleanup(func() { go release() })

	ctx := context.Background()
	fc := client.New(front.URL)
	g := servers[0].Scheme().Network().Graph()
	if _, err := fc.Mutate(ctx, compactroute.MutSetWeight(g.Name(0), firstNeighborName(servers[0]), 2)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := fc.RebuildWait(ctx)
		done <- err
	}()
	// A stage that has written version 1's graph file holds the build
	// path until its manifest FIFO is read.
	deadline := time.Now().Add(30 * time.Second)
	for _, p := range graphs {
		for {
			if _, err := os.Stat(p); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no stage reached %s", p)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	healthz := func(url string) client.Health {
		t.Helper()
		hctx, cancel := context.WithTimeout(ctx, probe)
		defer cancel()
		h, err := client.New(url).Healthz(hctx)
		if err != nil {
			t.Fatalf("%s/v1/healthz while the shards stage: %v", url, err)
		}
		return h
	}
	for _, u := range urls {
		if h := healthz(u); h.Status != "ok" || h.Version != 0 || h.Pending != 1 {
			t.Fatalf("%s mid-stage: %+v, want ok on version 0 with 1 pending", u, h)
		}
	}
	c.probeAll()
	if h := healthz(front.URL); h.Status != "ok" {
		t.Fatalf("front-door mid-stage: status %q, want ok", h.Status)
	}
	if st := c.Stats(); st.Ejections != 0 || st.Healthy != 2 {
		t.Fatalf("mid-stage: %d ejections, %d healthy; want 0 and 2", st.Ejections, st.Healthy)
	}

	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i, srv := range servers {
		if v, _ := srv.Version(); v.ID != 1 {
			t.Fatalf("shard %d serves version %d after the cut-over, want 1", i, v.ID)
		}
	}
	if st := c.Stats(); st.Ejections != 0 || st.Swaps != 1 {
		t.Fatalf("after the cut-over: %d ejections, %d swaps; want 0 and 1", st.Ejections, st.Swaps)
	}
}
