// Command routed is the route-serving daemon: build once, route many —
// and, when serving a registry kind, mutate and rebuild without ever
// dropping a query. All the serving logic lives in internal/server;
// this command is the flag surface plus a graceful listener. It serves
// any scheme kind in the registry, either loaded from a file persisted
// by compactroute.Save or built at startup by kind name:
//
//	routesim -n 2000 -k 4 -save net.crsc      # pay the build once
//	routed -scheme net.crsc -addr :8347       # serve the file forever
//
//	routed -scheme tz -k 3 -n 500             # build a registry kind…
//	routed -scheme apcover -graph topo.txt    # …over a generated or
//	                                          #   saved topology
//
// -scheme names either a registered kind (see compactroute.Kinds:
// paper, fulltable, apcover, landmark, tz) or a scheme file; kinds
// win, so a file named like a kind needs a path separator ("./tz").
//
// The HTTP surface is versioned under /v1; nothing else is served:
//
//	GET  /v1/route?src=<name>&dst=<name>  route between external names
//	GET  /v1/healthz                      liveness + scheme identity + live version
//	GET  /v1/stats                        worker pool and swap counters
//	GET  /v1/metrics                      Prometheus text exposition
//	GET  /v1/trace/{id}                   one stored request trace by ID
//	GET  /v1/traces/recent[?n=]           newest stored traces
//	GET  /v1/events                       bounded event journal (swaps, faults)
//	POST /v1/mutate                       append topology mutations (dynamic mode)
//	POST /v1/rebuild[?wait=1|?stage=1]    rebuild + hot-swap (stage: build only)
//	POST /v1/swap                         commit a staged version by ID
//
// Requests are traced 1-in--trace-sample (the X-Compactroute-Trace
// header forces a trace under the propagated ID); -slowlog writes
// slow and refused requests as JSON lines; -debug-addr exposes
// net/http/pprof on a separate listener.
//
// Kind-built schemes serve DYNAMICALLY; file-loaded schemes are static
// and answer 409 on the mutation paths. Names accept decimal or
// 0x-prefixed hex. Error responses follow the typed taxonomy (see
// internal/server): 422 caller's fault, 503 retryable back-pressure
// with Retry-After, 409 static-scheme mutation or version skew, 500
// invariant violation. The listener carries read/write/idle timeouts
// and drains gracefully on SIGINT/SIGTERM.
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

	"compactroute"
	"compactroute/internal/obs"
	"compactroute/internal/server"
)

func main() {
	schemeArg := flag.String("scheme", "", "scheme to serve: a registry kind ("+strings.Join(compactroute.Kinds(), ", ")+") or a file written by compactroute.Save (required)")
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", 0, "max concurrent route computations (0: GOMAXPROCS)")
	metric := flag.Bool("metric", false, "compute a scheme file's shortest-path metric at startup so its responses carry true stretch (one APSP; kind-built schemes always carry it)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown deadline after SIGINT/SIGTERM")
	k := flag.Int("k", 3, "trade-off parameter when building a kind")
	n := flag.Int("n", 512, "node count for the generated topology when building a kind without -graph")
	p := flag.Float64("p", 0, "gnp edge probability for the generated topology (0: 8/n)")
	seed := flag.Uint64("seed", 1, "seed for generation and construction when building a kind")
	sfactor := flag.Float64("sfactor", 0.25, "landmark S-set constant for kind paper")
	graphFile := flag.String("graph", "", "build the kind over this topology file (gio text format) instead of generating one")
	rebuildAfter := flag.Int("rebuild-after", 0, "trigger a background rebuild automatically once this many mutations are pending (0: POST /v1/rebuild only)")
	bestOfBoth := flag.Bool("bestofboth", false, "route src→dst and dst→src concurrently and serve the cheaper usable direction (dynamic mode; mitigates transient link/node failures)")
	dampPenalty := flag.Float64("damp-penalty", 0, "flap damping: starting cost penalty per recently failed element on a path, decaying with -damp-halflife (dynamic mode; 0: off)")
	dampHalfLife := flag.Duration("damp-halflife", 30*time.Second, "flap-damping decay half-life")
	snapdir := flag.String("snapdir", "", "persist every topology version to this directory (graph, persistable schemes with lineage, manifest); one directory records one run's chain — use a fresh one per daemon start")
	traceSample := flag.Int("trace-sample", 64, "trace 1 in this many requests (negative: off; propagated X-Compactroute-Trace IDs are always traced)")
	traceRing := flag.Int("trace-ring", 1024, "stored-trace ring capacity")
	slowlog := flag.String("slowlog", "", "append slow/refused requests as JSON lines to this file (\"-\": stderr; empty: off)")
	slowThreshold := flag.Duration("slow-threshold", 100*time.Millisecond, "latency threshold for the slow log")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty: off)")
	flag.Parse()

	if *schemeArg == "" {
		fmt.Fprintln(os.Stderr, "routed: -scheme is required")
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
			log.Fatalf("routed: opening slow log: %v", err)
		}
		defer f.Close()
		slowW = f
	}
	srv, err := server.New(server.Config{
		Scheme:        *schemeArg,
		GraphFile:     *graphFile,
		K:             *k,
		N:             *n,
		P:             *p,
		Seed:          *seed,
		SFactor:       *sfactor,
		Metric:        *metric,
		Workers:       *workers,
		RebuildAfter:  *rebuildAfter,
		BestOfBoth:    *bestOfBoth,
		DampPenalty:   *dampPenalty,
		DampHalfLife:  *dampHalfLife,
		SnapshotDir:   *snapdir,
		TraceSample:   *traceSample,
		TraceRing:     *traceRing,
		SlowLog:       slowW,
		SlowThreshold: *slowThreshold,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatalf("routed: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.Start(ctx)
	defer srv.Close()

	if *debugAddr != "" {
		go func() {
			log.Printf("routed: pprof debug listener on %s", *debugAddr)
			dbg := &http.Server{Addr: *debugAddr, Handler: obs.DebugHandler(), ReadHeaderTimeout: 5 * time.Second}
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("routed: debug listener: %v", err)
			}
		}()
	}

	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// A routing answer is tiny and a query is one GET: anything
		// slow is a stuck peer holding a connection, not real work.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      15 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("routed: serving on %s (workers=%d metric=%v dynamic=%v)",
		*addr, srv.Stats().Workers, srv.Scheme().Network().HasMetric(), srv.Dynamic())

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalf("routed: %v", err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("routed: signal received, draining for up to %v", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Fatalf("routed: shutdown: %v", err)
		}
		log.Printf("routed: drained cleanly")
	}
}
