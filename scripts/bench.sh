#!/usr/bin/env bash
# Reproducible perf trajectory: drive the five BENCH scenarios against
# local qgraphd deployments and accrete them into one JSON report
# (default BENCH_7.json — the committed perf record for this tree).
#
#   read_only_notrace  query-only load, -trace=false    (tracing-cost baseline)
#   read_only_nowatch  query-only load, -watchdog=false (watchdog-cost baseline)
#   read_only          identical load, everything on    (+ phase attribution)
#   mixed              queries + streamed mutations
#   recovery           queries through a worker SIGKILL + handoff
#
# A sixth section records the read scale-out A/B (single node vs router +
# 2 replicas with -route-affinity) into a second report, BENCH_8.json; a
# seventh A/Bs router trace propagation (the same routed workload through
# a -trace=false router vs a tracing one over the same fleet) into
# BENCH_9.json with the same ≤5% bar.
#
# The report's derived tracing_overhead_pct and watchdog_overhead_pct
# compare read_only against its two baselines; the acceptance bars are
# ≤5% for tracing and ≤2% for the watchdog. Tune with BENCH_RATE /
# BENCH_DURATION; usage: scripts/bench.sh [out.json]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_7.json}"
RATE="${BENCH_RATE:-300}"
DUR="${BENCH_DURATION:-6s}"

workdir=$(mktemp -d)
cleanup() {
  # shellcheck disable=SC2046  # word-splitting is the point: one PID per arg
  kill $(jobs -p) >/dev/null 2>&1 || true
  wait >/dev/null 2>&1 || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir" ./cmd/...

"$workdir/qgraph-gen" -kind road -preset bw -scale 256 \
  -out "$workdir/g.qgr" -mutations 20000

rm -f "$OUT"

CTRL=""
W0=""

start_deploy() { # addrs serve-addr [extra controller flags...]
  local addrs=$1 serveaddr=$2
  shift 2
  "$workdir/qgraphd" -role worker -id 0 -graph "$workdir/g.qgr" \
    -addrs "$addrs" >>"$workdir/bench.log" 2>&1 &
  W0=$!
  "$workdir/qgraphd" -role worker -id 1 -graph "$workdir/g.qgr" \
    -addrs "$addrs" >>"$workdir/bench.log" 2>&1 &
  sleep 1
  "$workdir/qgraphd" -role controller -graph "$workdir/g.qgr" -addrs "$addrs" \
    -serve "$serveaddr" -commit-every 100ms "$@" >>"$workdir/bench.log" 2>&1 &
  CTRL=$!
  for _ in $(seq 1 50); do
    curl -fsS "http://$serveaddr/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "bench: deployment on $serveaddr never became healthy" >&2
  tail -20 "$workdir/bench.log" >&2
  return 1
}

stop_deploy() {
  kill -INT "$CTRL" >/dev/null 2>&1 || true
  wait "$CTRL" >/dev/null 2>&1 || true
  sleep 1
}

# The read-only pair is a controlled comparison of the per-request cost
# of tracing, so it pins every confounder the other scenarios keep:
#   * adaptive Q-cut is off (-adapt=false) — a repartition flushes the
#     result cache, and whether the re-warm miss storm lands inside the
#     measurement window is chaotic run-to-run noise far above 5%;
#   * both runs first warm the cache with the identical (same-seed)
#     workload, so neither pays the one-off pool-computation cost;
#   * each arm is measured PAIR_REPS times and the best (lowest-mean)
#     repetition is recorded (-json-best): at sub-millisecond means a 5%
#     bar is ~15µs, below single-run scheduler/GC tail noise, and
#     repeat-and-take-best strips exactly that noise from both arms.
PAIR_DUR="${BENCH_COMPARE_DURATION:-10s}"
PAIR_REPS="${BENCH_COMPARE_REPS:-3}"
warmup() { # base-url
  "$workdir/qgraph-bench" -load "$1" -rate "$RATE" \
    -load-duration "$DUR" -load-pool 128 -load-timeout 30s >/dev/null
}

# --- read_only_notrace: the tracing-cost baseline ---------------------------
start_deploy "127.0.0.1:7761,127.0.0.1:7762,127.0.0.1:7763" "127.0.0.1:7810" \
  -adapt=false -trace=false
warmup "http://127.0.0.1:7810"
for _ in $(seq 1 "$PAIR_REPS"); do
  "$workdir/qgraph-bench" -load "http://127.0.0.1:7810" -rate "$RATE" \
    -load-duration "$PAIR_DUR" -load-pool 128 \
    -scenario read_only_notrace -json-out "$OUT" -json-best
done
stop_deploy

# --- read_only_nowatch: the watchdog-cost baseline --------------------------
start_deploy "127.0.0.1:7774,127.0.0.1:7775,127.0.0.1:7776" "127.0.0.1:7814" \
  -adapt=false -watchdog=false
warmup "http://127.0.0.1:7814"
for _ in $(seq 1 "$PAIR_REPS"); do
  "$workdir/qgraph-bench" -load "http://127.0.0.1:7814" -rate "$RATE" \
    -load-duration "$PAIR_DUR" -load-pool 128 \
    -scenario read_only_nowatch -json-out "$OUT" -json-best
done
stop_deploy

# --- read_only: identical load with tracing and watchdog on -----------------
start_deploy "127.0.0.1:7764,127.0.0.1:7765,127.0.0.1:7766" "127.0.0.1:7811" \
  -adapt=false
warmup "http://127.0.0.1:7811"
for _ in $(seq 1 "$PAIR_REPS"); do
  "$workdir/qgraph-bench" -load "http://127.0.0.1:7811" -rate "$RATE" \
    -load-duration "$PAIR_DUR" -load-pool 128 \
    -trace-sample 5 -scenario read_only -json-out "$OUT" -json-best
done
stop_deploy

# --- mixed: queries + streamed mutations ------------------------------------
start_deploy "127.0.0.1:7767,127.0.0.1:7768,127.0.0.1:7769" "127.0.0.1:7812"
"$workdir/qgraph-bench" -load "http://127.0.0.1:7812" -rate "$RATE" \
  -load-duration "$DUR" -load-pool 128 \
  -mutate-rate 200 -mutate-batch 25 -mutations "$workdir/g.qgr.mut" \
  -trace-sample 5 -scenario mixed -json-out "$OUT"
stop_deploy

# --- recovery: a worker SIGKILL mid-load ------------------------------------
start_deploy "127.0.0.1:7771,127.0.0.1:7772,127.0.0.1:7773" "127.0.0.1:7813" \
  -heartbeat-every 200ms -heartbeat-timeout 1s
"$workdir/qgraph-bench" -load "http://127.0.0.1:7813" -rate 150 \
  -load-duration 12s -load-pool 64 -load-timeout 15s \
  -kill-pid "$W0" -kill-worker 0 -kill-after 4s \
  -trace-sample 5 -scenario recovery -json-out "$OUT"
stop_deploy

# --- read scale-out: router + 2 replicas vs the single primary --------------
# The PR-8 A/B, recorded into its own report (default BENCH_8.json): the
# identical read workload is measured once against the primary alone and
# once through the router fronting two WAL-tailing replicas with
# -route-affinity. The workload is sized so one node is miss-bound (pool
# 1024 distinct queries vs a 512-entry result cache) while the sharded
# fleet holds the whole pool in aggregate cache — the same reason read
# fleets scale in production. Both arms get the same warmup, rate, pool,
# and per-node cache config; the derived read_scaleout_x in the report is
# router_read goodput over single_node_read goodput (bar: >= 1.7x).
OUT8="${BENCH_OUT8:-BENCH_8.json}"
RATE8="${BENCH_SCALEOUT_RATE:-300}"
WARM8="${BENCH_SCALEOUT_WARMUP:-30s}"
DUR8="${BENCH_SCALEOUT_DURATION:-10s}"
SNAP8="$workdir/snap8"
WAL8="$workdir/wal8"
mkdir -p "$SNAP8" "$WAL8"
rm -f "$OUT8"

arm() { # base-url scenario
  "$workdir/qgraph-bench" -load "$1" -rate "$RATE8" -load-duration "$WARM8" \
    -load-pool 1024 -load-tenants 1 -load-timeout 60s >/dev/null
  sleep 3 # let the admission queue drain so the warmup doesn't bleed in
  "$workdir/qgraph-bench" -load "$1" -rate "$RATE8" -load-duration "$DUR8" \
    -load-pool 1024 -load-tenants 1 -load-timeout 60s \
    -scenario "$2" -json-out "$OUT8"
}

start_deploy "127.0.0.1:7777,127.0.0.1:7778,127.0.0.1:7779" "127.0.0.1:7815" \
  -adapt=false -snapshot-dir "$SNAP8" -wal-dir "$WAL8" \
  -cache-size 512 -cache-ttl 10m
arm "http://127.0.0.1:7815" single_node_read

"$workdir/qgraphd" -role replica -graph "$workdir/g.qgr" \
  -snapshot-dir "$SNAP8" -wal-dir "$WAL8" -serve 127.0.0.1:7816 \
  -cache-size 512 -cache-ttl 10m >>"$workdir/bench.log" 2>&1 &
REPA=$!
"$workdir/qgraphd" -role replica -graph "$workdir/g.qgr" \
  -snapshot-dir "$SNAP8" -wal-dir "$WAL8" -serve 127.0.0.1:7817 \
  -cache-size 512 -cache-ttl 10m >>"$workdir/bench.log" 2>&1 &
REPB=$!
for p in 7816 7817; do
  for _ in $(seq 1 50); do
    curl -fsS "http://127.0.0.1:$p/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
done
"$workdir/qgraphd" -role router -primary http://127.0.0.1:7815 \
  -replicas http://127.0.0.1:7816,http://127.0.0.1:7817 \
  -route-affinity -health-every 200ms -serve 127.0.0.1:7818 \
  >>"$workdir/bench.log" 2>&1 &
ROUTER=$!
nrot=0
for _ in $(seq 1 50); do
  nrot=$(curl -fsS http://127.0.0.1:7818/healthz 2>/dev/null \
    | grep -o '"in_rotation":true' | wc -l)
  [ "$nrot" -eq 2 ] && break
  sleep 0.2
done
if [ "$nrot" -ne 2 ]; then
  echo "bench: replicas never entered the router rotation" >&2
  exit 1
fi
arm "http://127.0.0.1:7818" router_read

# --- router trace-propagation overhead: routed reads, -trace A/B ------------
# The PR-9 A/B, recorded into its own report (default BENCH_9.json): the
# identical cache-warm routed read workload through two routers over the
# SAME fleet — one with -trace=false (no route trace, no propagated
# X-QGraph-Trace-ID), one with tracing on. Both arms share the replicas,
# their caches, and the pair methodology of the read_only comparison
# (same-seed warmup, PAIR_REPS repetitions, best kept); the derived
# router_trace_overhead_pct must stay within the same ≤5% bar as
# node-local tracing.
OUT9="${BENCH_OUT9:-BENCH_9.json}"
rm -f "$OUT9"

"$workdir/qgraphd" -role router -primary http://127.0.0.1:7815 \
  -replicas http://127.0.0.1:7816,http://127.0.0.1:7817 \
  -route-affinity -health-every 200ms -trace=false -serve 127.0.0.1:7819 \
  >>"$workdir/bench.log" 2>&1 &
ROUTERNT=$!
nrot=0
for _ in $(seq 1 50); do
  nrot=$(curl -fsS http://127.0.0.1:7819/healthz 2>/dev/null \
    | grep -o '"in_rotation":true' | wc -l)
  [ "$nrot" -eq 2 ] && break
  sleep 0.2
done
if [ "$nrot" -ne 2 ]; then
  echo "bench: replicas never entered the untraced router's rotation" >&2
  exit 1
fi

pair9() { # base-url scenario
  "$workdir/qgraph-bench" -load "$1" -rate "$RATE8" -load-duration "$DUR" \
    -load-pool 128 -load-timeout 30s >/dev/null
  for _ in $(seq 1 "$PAIR_REPS"); do
    "$workdir/qgraph-bench" -load "$1" -rate "$RATE8" -load-duration "$PAIR_DUR" \
      -load-pool 128 -load-timeout 30s \
      -scenario "$2" -json-out "$OUT9" -json-best
  done
}
pair9 "http://127.0.0.1:7819" router_read_notrace
pair9 "http://127.0.0.1:7818" router_read_trace

kill -INT "$ROUTER" "$ROUTERNT" "$REPA" "$REPB" >/dev/null 2>&1 || true
stop_deploy

# --- verdict ----------------------------------------------------------------
overhead=$(sed -n 's/.*"tracing_overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' "$OUT")
woverhead=$(sed -n 's/.*"watchdog_overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' "$OUT")
scaleout=$(sed -n 's/.*"read_scaleout_x": \([0-9.]*\).*/\1/p' "$OUT8")
rtoverhead=$(sed -n 's/.*"router_trace_overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' "$OUT9")
echo "BENCH OK: report written to $OUT (tracing overhead ${overhead:-?}%, watchdog overhead ${woverhead:-?}%)"
echo "BENCH OK: read scale-out report written to $OUT8 (router+2 replicas = ${scaleout:-?}x single node)"
echo "BENCH OK: router trace report written to $OUT9 (trace propagation overhead ${rtoverhead:-?}%)"
breach=0
if [ -n "$scaleout" ]; then
  under=$(awk -v x="$scaleout" 'BEGIN { print (x < 1.7) ? 1 : 0 }')
  if [ "$under" -eq 1 ]; then
    echo "BENCH WARN: read scale-out ${scaleout}x is below the 1.7x bar" >&2
    breach=1
  fi
fi
if [ -n "$overhead" ]; then
  over=$(awk -v o="$overhead" 'BEGIN { print (o > 5) ? 1 : 0 }')
  if [ "$over" -eq 1 ]; then
    echo "BENCH WARN: tracing overhead ${overhead}% exceeds the 5% bar" >&2
    breach=1
  fi
fi
if [ -n "$woverhead" ]; then
  wover=$(awk -v o="$woverhead" 'BEGIN { print (o > 2) ? 1 : 0 }')
  if [ "$wover" -eq 1 ]; then
    echo "BENCH WARN: watchdog overhead ${woverhead}% exceeds the 2% bar" >&2
    breach=1
  fi
fi
if [ -n "$rtoverhead" ]; then
  rtover=$(awk -v o="$rtoverhead" 'BEGIN { print (o > 5) ? 1 : 0 }')
  if [ "$rtover" -eq 1 ]; then
    echo "BENCH WARN: router trace overhead ${rtoverhead}% exceeds the 5% bar" >&2
    breach=1
  fi
fi
if [ "$breach" -eq 1 ]; then
  # BENCH_SOFT_FAIL=1 (CI on shared runners) reports the breach without
  # failing the job; the committed report is measured on quiet hardware.
  [ "${BENCH_SOFT_FAIL:-0}" = "1" ] || exit 1
fi
