# Local targets mirror .github/workflows/ci.yml step for step, so a
# green `make ci` means a green pipeline.

GO ?= go

.PHONY: build test race perfbench lint fmtcheck vet crlint lint-api lint-budget staticcheck docs vuln bench benchjson fuzz smoke ci

build:
	$(GO) build ./...

# -shuffle=on randomizes test order every run, so inter-test state
# dependencies cannot hide (the seed is printed for reproduction).
test:
	$(GO) test -shuffle=on ./...

# Race tests run the -short suite: the 2k-node persistence acceptance
# test is exercised (unraced) by `make test`, and racing it would
# dominate the pipeline for no extra interleaving coverage. The client
# transport's tests run twenty times more: a race in its idle pool,
# cancel hook or stale-connection retry shows only now and then.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=20 -run 'TestTransport' ./client

# perfbench, the end-to-end benchmark (BENCHMARK.json), is a module of
# its own that reaches this one through `replace compactroute => ../`,
# so `go test ./...` never compiles it. Vet and test it here, so a
# facade change that breaks it fails before the benchmark runs.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# lint is the umbrella; each sub-check is its own target so nothing
# runs twice when both `make lint` and a single check are invoked.
lint: fmtcheck vet crlint

fmtcheck:
	@fmt_out=$$(gofmt -l . examples cmd internal); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The repository's own analyzer suite (internal/analysis, DESIGN.md
# §9), ten analyzers: map-order determinism, ctx-first flow, error
# taxonomy, seeded randomness, detached-context deadlines, lock
# discipline, goroutine lifecycles, hot-path escape budgets, the
# locked public API surface, and the locked metric-name set. Escape hatches are lint/crlint.suppress
# and inline //crlint:ignore directives; both need a reason and go
# stale loudly.
crlint:
	$(GO) run ./cmd/crlint ./...

# Regenerate the tracked lint sidecars after an *intentional* change
# to a hot path's allocations or to the public API surface.
lint-budget:
	$(GO) run ./cmd/crlint -write-budget ./...

lint-api:
	$(GO) run ./cmd/crlint -write-api ./...

# Staticcheck, pinned so every run means the same thing. Like vuln it
# downloads the tool, so it is not in the local ci chain; the pipeline
# runs it as its own step. Config in staticcheck.conf.
STATICCHECK_VERSION ?= v0.6.1
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Docs gate: every package carries its doc comment, the README front
# door exists and links the deep docs, and go vet is clean. The ci
# chain sets CHECK_DOCS_NO_VET=1 because lint already ran vet.
docs:
	sh scripts/check_docs.sh

# Known-vulnerability scan (network access required on first run).
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# Smoke-compile and single-shot every benchmark so perf code paths
# cannot rot unnoticed.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Machine-readable experiment results (JSON Lines), the BENCH_*.json
# perf-trajectory format. Written to the file first (a pipe through
# tee would mask a routebench failure behind tee's exit status), then
# shown and checked non-empty. D2, T1 and T4 are gates instead: their
# quick runs are deterministic (the same bytes on every run and at any
# GOMAXPROCS), so each regenerated table, on one core and on all of
# them, must equal its committed BENCH_*.json.
benchjson:
	$(GO) run ./cmd/routebench -exp P1 -quick -json > BENCH_P1.json
	@cat BENCH_P1.json
	@test -s BENCH_P1.json || { echo "benchjson: empty BENCH_P1.json" >&2; exit 1; }
	$(GO) run ./cmd/routebench -exp D1 -quick -json > BENCH_D1.json
	@cat BENCH_D1.json
	@test -s BENCH_D1.json || { echo "benchjson: empty BENCH_D1.json" >&2; exit 1; }
	@for procs in 1 $$(nproc); do for exp in D2 T1 T4; do \
		tmp=$$(mktemp); \
		GOMAXPROCS=$$procs $(GO) run ./cmd/routebench -exp $$exp -quick -json > $$tmp && cat $$tmp && cmp BENCH_$$exp.json $$tmp; \
		st=$$?; rm -f $$tmp; \
		[ $$st -eq 0 ] || { echo "benchjson: $$exp at GOMAXPROCS=$$procs did not reproduce the committed BENCH_$$exp.json" >&2; exit 1; }; \
	done; done
	$(GO) run ./cmd/routebench -exp S1 -quick -json > BENCH_S1.json
	@cat BENCH_S1.json
	@test -s BENCH_S1.json || { echo "benchjson: empty BENCH_S1.json" >&2; exit 1; }
	$(GO) run ./cmd/routebench -exp O1 -quick -json > BENCH_O1.json
	@cat BENCH_O1.json
	@test -s BENCH_O1.json || { echo "benchjson: empty BENCH_O1.json" >&2; exit 1; }

# Fuzz smoke: each native fuzz target runs a short randomized burst
# beyond its seed corpus. -fuzzminimizetime is capped because the
# default (60s per interesting input) can eat the whole budget on a
# single slow worker before any real exploration happens.
fuzz:
	$(GO) test -run FuzzDecodePayload -fuzz FuzzDecodePayload -fuzztime 10s -fuzzminimizetime 20x ./internal/codec
	$(GO) test -run FuzzReadTrace -fuzz FuzzReadTrace -fuzztime 10s -fuzzminimizetime 20x ./internal/dynamic
	$(GO) test -run FuzzRouteCodec -fuzz FuzzRouteCodec -fuzztime 10s -fuzzminimizetime 20x ./client

# End-to-end serving smoke: scheme build -> routed -> loadgen replay
# of three workload patterns -> graceful SIGTERM drain.
smoke:
	sh scripts/smoke_serving.sh

# vuln and staticcheck are not in the local ci chain: both download
# their tool, so they need network access. The pipeline runs each as
# its own step.
ci: build lint test race perfbench bench benchjson fuzz smoke
ci: export CHECK_DOCS_NO_VET = 1
ci: docs
