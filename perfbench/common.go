package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"time"

	"compactroute"
	"compactroute/client"
	"compactroute/internal/server"
)

// sizes are the workload dimensions. fullSizes is the benchmark; the
// tests run the same code at tinySizes.
type sizes struct {
	walkN        int           // walk topology nodes
	shardN       int           // shard topology nodes (0: routed's default)
	setupReps    int           // set-ups per run; setup_s is their median
	queries      int           // walk's pre-generated query buffer, cycled
	stretchPairs int           // fixed pair sample for stretch and gates
	checkPairs   int           // pairs re-checked against a reference
	warmup       time.Duration // untimed load before the timed phase
	rounds       int           // equal rounds of an untraced timed phase
	batch        int           // mutations per write cycle
	writes       int           // cluster-read write cycles after the reads
	window       int           // reads per window in a traced run
}

// topoSeed fixes the topology and the scheme construction of every
// run; the run's own seed drives the query streams and the mutation
// trace. Across topology seeds the largest table moved 12–19% and the
// largest stretch of a fixed-size sample 30–53% (quartile spread over
// median, five seeds), more than any regression bound could hold; on
// one topology both are exact for a given code version, so a change
// that costs space or stretch shows as a clean shift.
const topoSeed = 1

// stretchFork selects the fixed pair sample stretch is measured over.
const stretchFork = 0x5741

var fullSizes = sizes{
	walkN:        1024,
	shardN:       0,
	setupReps:    5,
	queries:      1 << 16,
	stretchPairs: 4096,
	checkPairs:   256,
	warmup:       time.Second,
	rounds:       20,
	batch:        8,
	writes:       9,
	window:       512,
}

// paperConfig is the construction every shard runs at routed's
// defaults (k=3, S-factor 0.25), as a facade Config for the walk and
// for the in-process reference build the gates compare against.
var paperConfig = compactroute.Config{Kind: compactroute.KindPaper, K: 3, Seed: topoSeed, SFactor: 0.25}

var errNotDelivered = errors.New("route not delivered")

// quiet discards the serving tier's operational log lines.
func quiet(string, ...any) {}

// runtimeSample is a point reading of the Go runtime's cumulative
// allocation, GC and CPU counters.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds of CPU spent in GC
	totalCPU   float64 // seconds of CPU available (GOMAXPROCS × wall)
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// runtimeDelta accumulates runtime counters over the measured windows
// of a run (all of the timed phase, or a traced run's untraced
// windows) and the ops done in them.
type runtimeDelta struct {
	alloc, gcs   uint64
	gcCPU, total float64
	ops          int64
	from         runtimeSample
}

func (d *runtimeDelta) start() { d.from = readRuntime() }

func (d *runtimeDelta) stop(ops int64) {
	to := readRuntime()
	d.alloc += to.allocBytes - d.from.allocBytes
	d.gcs += to.gcCycles - d.from.gcCycles
	d.gcCPU += to.gcCPU - d.from.gcCPU
	d.total += to.totalCPU - d.from.totalCPU
	d.ops += ops
}

func (d *runtimeDelta) report(m map[string]float64) {
	ops := float64(max(d.ops, 1))
	m["runtime.alloc_bytes_per_op"] = float64(d.alloc) / ops
	m["runtime.gc_cycles_per_kop"] = float64(d.gcs) * 1000 / ops
	m["runtime.gc_cpu_fraction"] = 0
	if d.total > 0 {
		m["runtime.gc_cpu_fraction"] = d.gcCPU / d.total
	}
}

// liveHeapMiB forces a collection and returns the live heap it left.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// stealMeter brackets the timed phase with /proc/stat readings.
type stealMeter struct {
	from cpuTimes
	ok   bool
}

func startSteal() stealMeter {
	t, ok := readCPUTimes()
	return stealMeter{from: t, ok: ok}
}

func (m stealMeter) share() float64 {
	to, ok := readCPUTimes()
	if !m.ok || !ok {
		return -1
	}
	return stealShare(m.from, to)
}

// shard is one server.Server on a loopback listener, the way routed
// serves it.
type shard struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

// startShard builds a server and serves its handler — wrapped by wrap
// when non-nil — on a fresh loopback port. The listener timeouts are
// routed's.
func startShard(ctx context.Context, cfg server.Config, wrap func(http.Handler) http.Handler) (*shard, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start(ctx)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	hs, url, served, err := listen(h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &shard{srv: srv, hs: hs, url: url, served: served}, nil
}

// listen serves h on a fresh loopback port until shutdown.
func listen(h http.Handler) (*http.Server, string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      15 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String(), served, nil
}

// shutdown stops an http.Server and waits for its Serve to return.
func shutdown(hs *http.Server, served chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := hs.Shutdown(ctx)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (s *shard) close() error {
	err := shutdown(s.hs, s.served)
	s.srv.Close()
	return err
}

// newClient returns a client whose transport can force a trace ID onto
// its next requests (see forceTrace).
func newClient(url string) (*client.Client, *forceTrace) {
	c := client.New(url)
	ft := &forceTrace{base: c.HTTP.Transport}
	c.HTTP.Transport = ft
	return c, ft
}

// waitReady polls a health endpoint until it answers, the moment the
// tier can serve its first request.
func waitReady(ctx context.Context, c *client.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := c.Healthz(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after 30s: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}
