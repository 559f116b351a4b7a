#!/bin/sh
# End-to-end serving smoke, four passes:
#
#  1. The persisted-file flow: build a scheme with routesim -save,
#     serve the file with routed, replay three workload patterns over
#     HTTP with loadgen, then ask for a graceful shutdown and require
#     a clean exit.
#  2. The registry flow: for EVERY scheme kind the registry lists,
#     `routed -scheme <kind>` over a shared topology file must come up
#     healthy, identify its kind on /v1/healthz, and deliver a route.
#  3. The dynamic churn flow: graphgen emits a topology plus a
#     mutation trace, routed serves the kind dynamically, and loadgen
#     interleaves mutations and rebuilds with the replay; the daemon
#     must end past version 0 with nothing pending and zero failures.
#  4. The cluster flow: two routed shards behind a routefront
#     front-door, the same churn replay pointed at the front-door;
#     every mutation fans out and every rebuild is a coordinated
#     cut-over, so both shards must end on the SAME non-zero version
#     with nothing pending and the replay must report zero errors.
#     The pass also scrapes /v1/metrics on the front-door and both
#     shards (every line must be exposition-format shaped) and forces
#     a trace through the stack via X-Compactroute-Trace, which must
#     be retrievable from the front-door by that ID afterwards.
#
# Mirrors the CI "serving smoke" step; run locally with `make smoke`.
set -eu

tmp=$(mktemp -d)
pid=""
pid2=""
pid3=""
cleanup() {
	# set -e is live inside traps: keep every command failure-proof so
	# the rm always runs.
	for p in "$pid" "$pid2" "$pid3"; do
		if [ -n "$p" ]; then kill -9 "$p" 2>/dev/null || true; fi
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

addr=127.0.0.1:18347
go build -o "$tmp/routesim" ./cmd/routesim
go build -o "$tmp/routed" ./cmd/routed
go build -o "$tmp/loadgen" ./cmd/loadgen
go build -o "$tmp/graphgen" ./cmd/graphgen
go build -o "$tmp/routefront" ./cmd/routefront

wait_healthy() {
	ok=""
	for _ in $(seq 1 100); do
		if curl -sf "http://$addr/v1/healthz" >/dev/null 2>&1; then
			ok=1
			break
		fi
		sleep 0.1
	done
	[ -n "$ok" ] || { echo "smoke: routed never became healthy" >&2; exit 1; }
}

# --- pass 1: persisted-file flow ---

"$tmp/routesim" -n 160 -k 2 -sfactor 0.5 -save "$tmp/net.crsc" >/dev/null

"$tmp/routed" -scheme "$tmp/net.crsc" -addr "$addr" &
pid=$!
wait_healthy

"$tmp/loadgen" -scheme "$tmp/net.crsc" -targets "http://$addr" \
	-pattern uniform,zipf,local -queries 3000 -concurrency 8 -hist 6

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$pid"
wait "$pid"
status=$?
pid=""
[ "$status" -eq 0 ] || { echo "smoke: routed exited $status on SIGTERM" >&2; exit 1; }
echo "smoke: persisted-file path OK (build -> serve -> replay -> drain)"

# --- pass 2: every registry kind by name ---

"$tmp/graphgen" -family gnp -n 90 -p 0.09 -seed 7 >"$tmp/topo.txt"
# Two node names straight from the topology file ("v <id> <name>").
src=$(awk '$1 == "v" && $2 == 0 { print $3 }' "$tmp/topo.txt")
dst=$(awk '$1 == "v" && $2 == 89 { print $3 }' "$tmp/topo.txt")
[ -n "$src" ] && [ -n "$dst" ] || { echo "smoke: no names in topo.txt" >&2; exit 1; }

for kind in paper fulltable apcover landmark tz; do
	"$tmp/routed" -scheme "$kind" -graph "$tmp/topo.txt" -k 2 -sfactor 0.5 -addr "$addr" &
	pid=$!
	wait_healthy

	health=$(curl -sf "http://$addr/v1/healthz")
	case "$health" in
	*"\"kind\":\"$kind\""*) ;;
	*) echo "smoke: kind $kind healthz says: $health" >&2; exit 1 ;;
	esac

	body=$(curl -sf "http://$addr/v1/route?src=$src&dst=$dst")
	case "$body" in
	*'"delivered":true'*) ;;
	*) echo "smoke: kind $kind route answered: $body" >&2; exit 1 ;;
	esac

	kill -TERM "$pid"
	wait "$pid" || { echo "smoke: routed ($kind) exited non-zero on SIGTERM" >&2; exit 1; }
	pid=""
	echo "smoke: kind $kind serves end-to-end"
done

# --- pass 3: dynamic churn (mutate -> rebuild -> hot swap) ---

"$tmp/graphgen" -family gnp -n 90 -p 0.09 -seed 7 \
	-mutations 60 -mutout "$tmp/churn.mut" >"$tmp/topo2.txt"

"$tmp/routed" -scheme fulltable -graph "$tmp/topo2.txt" -addr "$addr" &
pid=$!
wait_healthy

"$tmp/loadgen" -graph "$tmp/topo2.txt" -targets "http://$addr" -pattern uniform,zipf \
	-queries 2000 -concurrency 8 \
	-mutations "$tmp/churn.mut" -mutate-every 40 -rebuild-every 20

health=$(curl -sf "http://$addr/v1/healthz")
case "$health" in
*'"dynamic":true'*) ;;
*) echo "smoke: churn healthz not dynamic: $health" >&2; exit 1 ;;
esac
case "$health" in
*'"pending":0'*) ;;
*) echo "smoke: churn left mutations pending: $health" >&2; exit 1 ;;
esac
case "$health" in
*'"version":0'*) echo "smoke: churn never swapped a version: $health" >&2; exit 1 ;;
*) ;;
esac

kill -TERM "$pid"
wait "$pid" || { echo "smoke: routed (churn) exited non-zero on SIGTERM" >&2; exit 1; }
pid=""
echo "smoke: dynamic churn path OK (mutate -> rebuild -> hot swap under replay)"

# --- pass 4: cluster flow (two shards + front-door, coordinated churn) ---

"$tmp/graphgen" -family gnp -n 90 -p 0.09 -seed 7 \
	-mutations 60 -mutout "$tmp/churn2.mut" >"$tmp/topo3.txt"

shard_a=127.0.0.1:18351
shard_b=127.0.0.1:18352
front=127.0.0.1:18353

# Both shards build from the same topology and seed, so they stage
# identical versions during the coordinated cut-overs.
"$tmp/routed" -scheme fulltable -graph "$tmp/topo3.txt" -addr "$shard_a" &
pid=$!
"$tmp/routed" -scheme fulltable -graph "$tmp/topo3.txt" -addr "$shard_b" &
pid2=$!
for s in "$shard_a" "$shard_b"; do
	ok=""
	for _ in $(seq 1 100); do
		if curl -sf "http://$s/v1/healthz" >/dev/null 2>&1; then ok=1; break; fi
		sleep 0.1
	done
	[ -n "$ok" ] || { echo "smoke: shard $s never became healthy" >&2; exit 1; }
done

"$tmp/routefront" -shards "http://$shard_a,http://$shard_b" -addr "$front" &
pid3=$!
ok=""
for _ in $(seq 1 100); do
	if curl -sf "http://$front/v1/healthz" >/dev/null 2>&1; then ok=1; break; fi
	sleep 0.1
done
[ -n "$ok" ] || { echo "smoke: routefront never became healthy" >&2; exit 1; }

# Churn replay through the front-door: mutations fan out to both
# shards, rebuilds are coordinated two-phase cut-overs, and the
# replay's errors column must stay zero for every pattern.
out=$("$tmp/loadgen" -graph "$tmp/topo3.txt" -targets "http://$front" -pattern uniform,zipf \
	-queries 2000 -concurrency 8 \
	-mutations "$tmp/churn2.mut" -mutate-every 40 -rebuild-every 20)
echo "$out"
echo "$out" | awk '$1 == "uniform" || $1 == "zipf" { if ($3 != 0) { bad = 1 } } END { exit bad }' \
	|| { echo "smoke: cluster replay reported failed routes" >&2; exit 1; }

# Both shards must serve the SAME non-zero version with no backlog.
ver_a=$(curl -sf "http://$shard_a/v1/healthz" | sed -n 's/.*"version":\([0-9]*\).*/\1/p')
ver_b=$(curl -sf "http://$shard_b/v1/healthz" | sed -n 's/.*"version":\([0-9]*\).*/\1/p')
[ -n "$ver_a" ] && [ "$ver_a" = "$ver_b" ] || {
	echo "smoke: cluster version skew after coordinated swaps: a=$ver_a b=$ver_b" >&2; exit 1; }
[ "$ver_a" != "0" ] || { echo "smoke: cluster never swapped a version" >&2; exit 1; }
for s in "$shard_a" "$shard_b"; do
	health=$(curl -sf "http://$s/v1/healthz")
	case "$health" in
	*'"pending":0'*) ;;
	*) echo "smoke: shard $s left mutations pending: $health" >&2; exit 1 ;;
	esac
done

# Metrics scrape: the front-door and both shards expose Prometheus
# text. Every non-comment line must be "name{labels} value" shaped
# (the strict in-process parser is pinned by tests; this guards the
# live endpoints), and the request counter family must be present.
for s in "$front" "$shard_a" "$shard_b"; do
	scrape=$(curl -sf "http://$s/v1/metrics")
	echo "$scrape" | awk '
		/^#/ { next }
		/^$/ { next }
		!/^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$/ { bad = 1; print "bad metrics line: " $0 > "/dev/stderr" }
		END { exit bad }
	' || { echo "smoke: $s /v1/metrics is not exposition-format shaped" >&2; exit 1; }
	case "$scrape" in
	*compactroute_requests_total*) ;;
	*) echo "smoke: $s /v1/metrics missing compactroute_requests_total" >&2; exit 1 ;;
	esac
done
echo "smoke: metrics scrape OK (front-door + both shards)"

# Forced trace: a propagated ID must ride front-door -> shard and be
# retrievable from the front-door afterwards, spans included.
src3=$(awk '$1 == "v" && $2 == 0 { print $3 }' "$tmp/topo3.txt")
dst3=$(awk '$1 == "v" && $2 == 89 { print $3 }' "$tmp/topo3.txt")
curl -sf -H "X-Compactroute-Trace: smoketrace01" \
	"http://$front/v1/route?src=$src3&dst=$dst3" >/dev/null \
	|| { echo "smoke: forced-trace route failed" >&2; exit 1; }
trace=$(curl -sf "http://$front/v1/trace/smoketrace01") \
	|| { echo "smoke: forced trace not retrievable by ID" >&2; exit 1; }
case "$trace" in
*'"id":"smoketrace01"'*) ;;
*) echo "smoke: trace lookup answered: $trace" >&2; exit 1 ;;
esac
case "$trace" in
*'"spans":'*) ;;
*) echo "smoke: stored trace has no spans: $trace" >&2; exit 1 ;;
esac
echo "smoke: forced trace OK (propagated ID retrievable with spans)"

kill -TERM "$pid3"
wait "$pid3" || { echo "smoke: routefront exited non-zero on SIGTERM" >&2; exit 1; }
pid3=""
kill -TERM "$pid" "$pid2"
wait "$pid" || { echo "smoke: shard a exited non-zero on SIGTERM" >&2; exit 1; }
wait "$pid2" || { echo "smoke: shard b exited non-zero on SIGTERM" >&2; exit 1; }
pid=""
pid2=""
echo "smoke: cluster path OK (2 shards + front-door, coordinated cut-overs, zero failures)"

echo "smoke: serving path OK (file flow + all registry kinds + churn + cluster)"
