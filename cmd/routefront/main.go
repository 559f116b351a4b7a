// Command routefront is the cluster front-door: it partitions the
// external name space across N routed shards with rendezvous hashing,
// proxies each route to the shard owning its source (one shard call
// per route), and drives coordinated hot-swaps so every shard answers
// from the same topology version.
//
//	routed -scheme fulltable -n 2000 -seed 7 -metric -addr :8347 &
//	routed -scheme fulltable -n 2000 -seed 7 -metric -addr :8348 &
//	routefront -shards http://localhost:8347,http://localhost:8348 -addr :8300
//
// Every shard must be started from the same topology source and seed:
// shards hold the full scheme (the partition is of query ownership),
// and the coordinated cut-over assumes they build identical versions.
// A route answered from any version but the one the front-door last
// committed answers 409. Route repair is a shard option: start routed
// with -bestofboth and -damp-penalty to walk both directions under the
// fault overlay.
//
// Flags: -addr, -shards (required), -health-every, -drain,
// -trace-sample, -trace-ring, -slowlog, -slow-threshold, -debug-addr.
//
// The surface mirrors a shard's /v1 API (see internal/cluster and
// internal/server), so clients — including cmd/loadgen — point at a
// front-door exactly as they would at a single shard. POST /v1/mutate
// fans out to every healthy shard under one lock; POST /v1/rebuild
// stages every shard, verifies the staged versions agree, and commits
// them behind the route gate — the reply carries the cut-over pause.
// Shards that fail transport are ejected and probed back in with
// backoff, re-admitted only when their version and mutation log match
// a healthy peer.
//
// Observability mirrors a shard's: GET /v1/metrics serves the
// front-door counters plus per-shard series labeled shard="<url>";
// GET /v1/trace/{id} merges the front-door's stored trace with each
// shard's view of the same request (the sampled trace ID rides the
// X-Compactroute-Trace header on the shard call); -slowlog and
// -debug-addr work as on routed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"compactroute/internal/cluster"
	"compactroute/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8300", "listen address")
	shards := flag.String("shards", "", "comma-separated routed base URLs, e.g. http://localhost:8347,http://localhost:8348 (required)")
	healthEvery := flag.Duration("health-every", time.Second, "health-probe interval (ejected shards back off exponentially on top)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown deadline after SIGINT/SIGTERM")
	traceSample := flag.Int("trace-sample", 64, "trace 1 in this many requests (negative: off; propagated X-Compactroute-Trace IDs are always traced)")
	traceRing := flag.Int("trace-ring", 1024, "stored-trace ring capacity")
	slowlog := flag.String("slowlog", "", "append slow/refused requests as JSON lines to this file (\"-\": stderr; empty: off)")
	slowThreshold := flag.Duration("slow-threshold", 100*time.Millisecond, "latency threshold for the slow log")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty: off)")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "routefront: -shards is required")
		flag.Usage()
		os.Exit(2)
	}
	var slowW io.Writer
	switch {
	case *slowlog == "-":
		slowW = os.Stderr
	case *slowlog != "":
		f, err := os.OpenFile(*slowlog, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatalf("routefront: opening slow log: %v", err)
		}
		defer f.Close()
		slowW = f
	}
	c, err := cluster.New(cluster.Options{
		Shards:        urls,
		HealthEvery:   *healthEvery,
		TraceSample:   *traceSample,
		TraceRing:     *traceRing,
		SlowLog:       slowW,
		SlowThreshold: *slowThreshold,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatalf("routefront: %v", err)
	}
	c.Start()
	defer c.Close()

	if *debugAddr != "" {
		go func() {
			log.Printf("routefront: pprof debug listener on %s", *debugAddr)
			dbg := &http.Server{Addr: *debugAddr, Handler: obs.DebugHandler(), ReadHeaderTimeout: 5 * time.Second}
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("routefront: debug listener: %v", err)
			}
		}()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           c.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      5 * time.Minute, // a coordinated rebuild answers inline
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("routefront: serving on %s over %d shards: %s", *addr, len(urls), strings.Join(urls, ", "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalf("routefront: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("routefront: signal received, draining for up to %v", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Fatalf("routefront: shutdown: %v", err)
		}
		log.Printf("routefront: drained cleanly")
	}
}
