#!/usr/bin/env bash
# Smoke test for the streaming-update serving stack and worker failure
# recovery. Scenario 1: start a 2-worker qgraphd deployment with -serve,
# stream graph mutations (qgraph-gen -mutations replay) at the HTTP API
# while qgraph-bench generates query load, and assert zero failed queries,
# applied mutations, and an advanced graph version. Scenario 2: a fresh
# deployment where qgraph-bench SIGKILLs a worker mid-load — recovery must
# hand its partition to the survivor with zero worker_lost responses, a
# bounded recovery time, and /healthz back to ok. Scenario 3: sustained
# mutate load with -snapshot-dir — force a checkpoint, SIGKILL a worker and
# restart it with -rejoin; the rejoin must replay from the checkpoint
# version (not 0), the op log must stay bounded, and a full deployment
# restart from the checkpoint must answer the same query identically.
# Scenario 4: durable WAL — kill -9 the whole deployment mid-mutation-load
# and restart with -wal-dir; the recovered version must equal the last
# acknowledged one and the answers must match a never-crashed control run.
# Scenario 5: a deterministically slow worker must trip the straggler
# watchdog (/events, degraded /healthz, the per-worker step gauge).
# Scenario 8: the MVCC commit pipeline under hot commits, then kill -9.
# (Numbers 6 and 7 drove the replica/router roles, removed in PR 23.)
set -euo pipefail
cd "$(dirname "$0")/.."

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
  -out "$workdir/g.qgr" -mutations 5000

ADDRS="127.0.0.1:7701,127.0.0.1:7702,127.0.0.1:7703"
SERVE="127.0.0.1:7800"

"$workdir/qgraphd" -role worker -id 0 -graph "$workdir/g.qgr" -addrs "$ADDRS" &
"$workdir/qgraphd" -role worker -id 1 -graph "$workdir/g.qgr" -addrs "$ADDRS" &
sleep 1
"$workdir/qgraphd" -role controller -graph "$workdir/g.qgr" -addrs "$ADDRS" \
  -serve "$SERVE" -commit-every 100ms &
ctrl=$!

for _ in $(seq 1 50); do
  curl -fsS "http://$SERVE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "http://$SERVE/healthz"; echo

out=$("$workdir/qgraph-bench" -load "http://$SERVE" -rate 200 -load-duration 5s \
  -load-pool 64 -mutate-rate 100 -mutate-batch 25 -mutations "$workdir/g.qgr.mut")
echo "$out"

health=$(curl -fsS "http://$SERVE/healthz")
echo "$health"

kill -INT "$ctrl" >/dev/null 2>&1 || true
wait "$ctrl" || true

fail=0

qline=$(grep -m1 '^sent=' <<<"$out")
okq=$(sed -n 's/.* ok=\([0-9]*\).*/\1/p' <<<"$qline")
failedq=$(sed -n 's/.* failed=\([0-9]*\).*/\1/p' <<<"$qline")
[ "${okq:-0}" -gt 0 ] || { echo "SMOKE FAIL: no successful queries"; fail=1; }
[ "${failedq:-1}" -eq 0 ] || { echo "SMOKE FAIL: $failedq failed queries"; fail=1; }

mline=$(grep -m1 '^mutations: writers=' <<<"$out")
applied=$(sed -n 's/.*applied=\([0-9]*\).*/\1/p' <<<"$mline")
failedm=$(sed -n 's/.*failed=\([0-9]*\).*/\1/p' <<<"$mline")
[ "${applied:-0}" -gt 0 ] || { echo "SMOKE FAIL: no mutations applied"; fail=1; }
[ "${failedm:-1}" -eq 0 ] || { echo "SMOKE FAIL: $failedm failed mutation ops"; fail=1; }

version=$(sed -n 's/.*"graph_version":\([0-9]*\).*/\1/p' <<<"$health")
[ "${version:-0}" -gt 0 ] || { echo "SMOKE FAIL: graph version did not advance"; fail=1; }
grep -q '"status":"ok"' <<<"$health" || { echo "SMOKE FAIL: unhealthy"; fail=1; }

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "SMOKE OK: $okq queries, $applied mutation ops applied, graph version $version"

# ---------------------------------------------------------------------------
# Scenario 2: kill a worker mid-load; assert recovery instead of failure.

ADDRS2="127.0.0.1:7711,127.0.0.1:7712,127.0.0.1:7713"
SERVE2="127.0.0.1:7801"

"$workdir/qgraphd" -role worker -id 0 -graph "$workdir/g.qgr" -addrs "$ADDRS2" &
victim=$!
"$workdir/qgraphd" -role worker -id 1 -graph "$workdir/g.qgr" -addrs "$ADDRS2" &
sleep 1
"$workdir/qgraphd" -role controller -graph "$workdir/g.qgr" -addrs "$ADDRS2" \
  -serve "$SERVE2" -commit-every 100ms \
  -heartbeat-every 200ms -heartbeat-timeout 1s &
ctrl2=$!

for _ in $(seq 1 50); do
  curl -fsS "http://$SERVE2/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

out2=$("$workdir/qgraph-bench" -load "http://$SERVE2" -rate 150 -load-duration 12s \
  -load-pool 64 -load-timeout 15s -kill-pid "$victim" -kill-worker 0 -kill-after 4s)
echo "$out2"

health2=$(curl -fsS "http://$SERVE2/healthz")
echo "$health2"

kill -INT "$ctrl2" >/dev/null 2>&1 || true
wait "$ctrl2" || true

fail=0

qline2=$(grep -m1 '^sent=' <<<"$out2")
okq2=$(sed -n 's/.* ok=\([0-9]*\).*/\1/p' <<<"$qline2")
failedq2=$(sed -n 's/.* failed=\([0-9]*\).*/\1/p' <<<"$qline2")
lost2=$(sed -n 's/.*worker_lost=\([0-9]*\).*/\1/p' <<<"$qline2")
[ "${okq2:-0}" -gt 0 ] || { echo "SMOKE FAIL: no successful queries through the kill"; fail=1; }
[ "${failedq2:-1}" -eq 0 ] || { echo "SMOKE FAIL: $failedq2 failed queries during recovery"; fail=1; }
[ "${lost2:-1}" -eq 0 ] || { echo "SMOKE FAIL: $lost2 worker_lost responses reached clients"; fail=1; }

rline=$(grep -m1 '^recovery:' <<<"$out2") || rline=""
episodes=$(sed -n 's/.*episodes=\([0-9]*\).*/\1/p' <<<"$rline")
recms=$(sed -n 's/.*recovery_time_ms=\([0-9.]*\).*/\1/p' <<<"$rline")
[ "${episodes:-0}" -ge 1 ] || { echo "SMOKE FAIL: no recovery episode recorded"; fail=1; }
# Detection (1s heartbeat timeout) plus handoff must stay well under 10s.
recint=${recms%.*}
[ -n "$recint" ] && [ "$recint" -lt 10000 ] || { echo "SMOKE FAIL: recovery took ${recms:-?}ms"; fail=1; }

grep -q '"status":"ok"' <<<"$health2" || { echo "SMOKE FAIL: not healthy after recovery"; fail=1; }
grep -q '"dead_workers":\[0\]' <<<"$health2" || { echo "SMOKE FAIL: lost worker not reported"; fail=1; }

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "SMOKE OK: recovery in ${recms}ms, $okq2 queries served through a worker kill, zero worker_lost"

# ---------------------------------------------------------------------------
# Scenario 3: checkpointing — snapshot, log truncation, rejoin-from-
# checkpoint, and restart-from-disk.

ADDRS3="127.0.0.1:7721,127.0.0.1:7722,127.0.0.1:7723"
SERVE3="127.0.0.1:7802"
SNAPDIR="$workdir/snaps"
mkdir -p "$SNAPDIR"

start_w3() { # id extra-flags... ; logs to $workdir/w3-<id>.log
  local id=$1; shift
  "$workdir/qgraphd" -role worker -id "$id" -graph "$workdir/g.qgr" \
    -addrs "$ADDRS3" -snapshot-dir "$SNAPDIR" "$@" \
    >>"$workdir/w3-$id.log" 2>&1 &
}

start_w3 0
victim3=$!
start_w3 1
sleep 1
"$workdir/qgraphd" -role controller -graph "$workdir/g.qgr" -addrs "$ADDRS3" \
  -serve "$SERVE3" -commit-every 50ms -snapshot-dir "$SNAPDIR" \
  -heartbeat-every 200ms -heartbeat-timeout 1s &
ctrl3=$!

for _ in $(seq 1 50); do
  curl -fsS "http://$SERVE3/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

# Background fault choreography against the bench window below: kill the
# worker 4s in (like scenario 2), restart it with -rejoin 2s later.
(
  sleep 6.5
  start_w3 0 -rejoin
) &

out3=$("$workdir/qgraph-bench" -load "http://$SERVE3" -rate 100 -load-duration 12s \
  -load-pool 64 -load-timeout 15s -mutate-rate 400 -mutate-batch 50 \
  -kill-pid "$victim3" -kill-worker 0 -kill-after 4s &
bench3=$!
# Force a checkpoint while mutations stream, before the kill fires.
sleep 2.5
curl -fsS -X POST "http://$SERVE3/admin/snapshot" >"$workdir/snapcut.json"
wait "$bench3")
echo "$out3"
echo "forced checkpoint: $(cat "$workdir/snapcut.json")"

fail=0

cutver=$(sed -n 's/.*"version":\([0-9]*\).*/\1/p' "$workdir/snapcut.json")
grep -q '"cut":true' "$workdir/snapcut.json" || { echo "SMOKE FAIL: forced snapshot did not cut"; fail=1; }
grep -q '"persisted":true' "$workdir/snapcut.json" || { echo "SMOKE FAIL: snapshot not persisted"; fail=1; }
[ "${cutver:-0}" -gt 0 ] || { echo "SMOKE FAIL: checkpoint at version 0"; fail=1; }

# The op log must be bounded: ops were truncated and the retained tail is
# smaller than what the run applied.
grep -q 'bounded=true' <<<"$out3" || { echo "SMOKE FAIL: delta log not bounded by the checkpoint"; fail=1; }

# The rejoined worker replayed from the checkpoint version, not 0.
# (PR 6 made this a structured log line: msg=rejoined ... checkpoint_version=V)
for _ in $(seq 1 50); do
  grep -q 'msg=rejoined' "$workdir/w3-0.log" && break
  sleep 0.2
done
rejline=$(grep -m1 'msg=rejoined' "$workdir/w3-0.log") || rejline=""
rejver=$(sed -n 's/.*checkpoint_version=\([0-9]*\).*/\1/p' <<<"$rejline")
echo "rejoin: ${rejline:-<missing>}"
[ -n "$rejver" ] && [ "$rejver" -gt 0 ] || { echo "SMOKE FAIL: rejoin did not replay from a checkpoint (got version '${rejver:-none}')"; fail=1; }

# Recovery through the kill stayed within the PR 3 bound.
rline3=$(grep -m1 '^recovery:' <<<"$out3") || rline3=""
episodes3=$(sed -n 's/.*episodes=\([0-9]*\).*/\1/p' <<<"$rline3")
recms3=$(sed -n 's/.*recovery_time_ms=\([0-9.]*\).*/\1/p' <<<"$rline3")
[ "${episodes3:-0}" -ge 1 ] || { echo "SMOKE FAIL: no recovery episode in scenario 3"; fail=1; }
recint3=${recms3%.*}
[ -n "$recint3" ] && [ "$recint3" -lt 10000 ] || { echo "SMOKE FAIL: recovery took ${recms3:-?}ms"; fail=1; }

# Restart-from-disk: checkpoint the final state, remember a reference
# answer, bounce the whole deployment, and ask again.
curl -fsS -X POST "http://$SERVE3/admin/snapshot" >/dev/null
ref1=$(curl -fsS "http://$SERVE3/query" -d '{"kind":"sssp","source":0,"target":999,"no_cache":true}')
val1=$(sed -n 's/.*"value":\([0-9.e+-]*\|null\).*/\1/p' <<<"$ref1")
ver1=$(curl -fsS "http://$SERVE3/healthz" | sed -n 's/.*"graph_version":\([0-9]*\).*/\1/p')

kill -INT "$ctrl3" >/dev/null 2>&1 || true
wait "$ctrl3" || true
# Workers exit via the protocol Shutdown; give them a moment.
sleep 1

start_w3 0
start_w3 1
sleep 1
"$workdir/qgraphd" -role controller -graph "$workdir/g.qgr" -addrs "$ADDRS3" \
  -serve "$SERVE3" -commit-every 50ms -snapshot-dir "$SNAPDIR" &
ctrl3b=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$SERVE3/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

ver2=$(curl -fsS "http://$SERVE3/healthz" | sed -n 's/.*"graph_version":\([0-9]*\).*/\1/p')
ref2=$(curl -fsS "http://$SERVE3/query" -d '{"kind":"sssp","source":0,"target":999,"no_cache":true}')
val2=$(sed -n 's/.*"value":\([0-9.e+-]*\|null\).*/\1/p' <<<"$ref2")

[ -n "$val1" ] && [ "$val1" = "$val2" ] || { echo "SMOKE FAIL: restart changed the answer ('$val1' vs '$val2')"; fail=1; }
[ "${ver2:-0}" -eq "${ver1:-1}" ] || { echo "SMOKE FAIL: restart lost the graph version ($ver1 vs $ver2)"; fail=1; }

kill -INT "$ctrl3b" >/dev/null 2>&1 || true
wait "$ctrl3b" || true

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "SMOKE OK: checkpoint v$cutver, rejoin replayed from v$rejver, restart preserved version $ver2 and answer $val2"

# ---------------------------------------------------------------------------
# Scenario 4: durable WAL — SIGKILL the whole deployment mid-mutation-load,
# restart with -wal-dir, and prove zero lost ops: the recovered graph
# version equals the last acknowledged one, and the final answer matches a
# never-crashed control run that applied the identical op stream.

BATCH4=50
NBATCH4=40   # 2000 ops total from g.qgr.mut
KILLAT4=25   # batches acked before the kill -9

# mut_body <batch-index>: JSON body for op lines [i*BATCH4, i*BATCH4+BATCH4).
mut_body() {
  awk -v from="$(( $1 * BATCH4 ))" -v count="$BATCH4" '
    /^#/ || NF == 0 { next }
    { i++ }
    i <= from || i > from + count { next }
    {
      if (n++) printf ","
      else printf "{\"ops\":["
      if ($1 == "add_vertex")       printf "{\"op\":\"add_vertex\"}"
      else if ($1 == "remove_edge") printf "{\"op\":\"remove_edge\",\"from\":%s,\"to\":%s}", $2, $3
      else                          printf "{\"op\":\"%s\",\"from\":%s,\"to\":%s,\"weight\":%s}", $1, $2, $3, $4
    }
    END { if (n) printf "]}" }
  ' "$workdir/g.qgr.mut"
}

# apply_batches <serve> <from> <to>: post batches [from, to) one at a time
# (each waits for its commit ack), echo the last acknowledged version.
apply_batches() {
  local serve=$1 from=$2 to=$3 ver="" body resp b
  for b in $(seq "$from" $(( to - 1 ))); do
    body=$(mut_body "$b")
    resp=$(curl -fsS "http://$serve/mutate" -d "$body") || return 1
    ver=$(sed -n 's/.*"version":\([0-9]*\).*/\1/p' <<<"$resp")
  done
  echo "$ver"
}

wait_healthy() { # serve
  for _ in $(seq 1 50); do
    curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  return 1
}

# Control run: the full stream, no crash.
ADDRS4C="127.0.0.1:7741,127.0.0.1:7742,127.0.0.1:7743"
SERVE4C="127.0.0.1:7803"
"$workdir/qgraphd" -role worker -id 0 -graph "$workdir/g.qgr" -addrs "$ADDRS4C" &
"$workdir/qgraphd" -role worker -id 1 -graph "$workdir/g.qgr" -addrs "$ADDRS4C" &
sleep 1
"$workdir/qgraphd" -role controller -graph "$workdir/g.qgr" -addrs "$ADDRS4C" \
  -serve "$SERVE4C" -commit-every 50ms &
ctrl4c=$!
wait_healthy "$SERVE4C" || { echo "SMOKE FAIL: control deployment never healthy"; exit 1; }

verc=$(apply_batches "$SERVE4C" 0 "$NBATCH4") || { echo "SMOKE FAIL: control mutations failed"; exit 1; }
refc=$(curl -fsS "http://$SERVE4C/query" -d '{"kind":"sssp","source":0,"target":999,"no_cache":true}')
valc=$(sed -n 's/.*"value":\([0-9.e+-]*\|null\).*/\1/p' <<<"$refc")
kill -INT "$ctrl4c" >/dev/null 2>&1 || true
wait "$ctrl4c" || true
sleep 1

# Crash run: same stream over -wal-dir + -snapshot-dir, kill -9 everything
# after KILLAT4 acked batches (with a checkpoint forced mid-way, so the
# restart exercises snapshot + WAL tail, not just a full replay).
ADDRS4="127.0.0.1:7751,127.0.0.1:7752,127.0.0.1:7753"
SERVE4="127.0.0.1:7804"
SNAP4="$workdir/snaps4"
WAL4="$workdir/wal4"
mkdir -p "$SNAP4" "$WAL4"

start_d4() { # id-or-controller
  if [ "$1" = controller ]; then
    "$workdir/qgraphd" -role controller -graph "$workdir/g.qgr" -addrs "$ADDRS4" \
      -serve "$SERVE4" -commit-every 50ms -snapshot-dir "$SNAP4" -wal-dir "$WAL4" \
      >>"$workdir/d4-ctrl.log" 2>&1 &
  else
    "$workdir/qgraphd" -role worker -id "$1" -graph "$workdir/g.qgr" -addrs "$ADDRS4" \
      -snapshot-dir "$SNAP4" -wal-dir "$WAL4" >>"$workdir/d4-w$1.log" 2>&1 &
  fi
}

start_d4 0; w4a=$!
start_d4 1; w4b=$!
sleep 1
start_d4 controller; ctrl4=$!
wait_healthy "$SERVE4" || { echo "SMOKE FAIL: wal deployment never healthy"; exit 1; }

half=$(( KILLAT4 / 2 ))
apply_batches "$SERVE4" 0 "$half" >/dev/null || { echo "SMOKE FAIL: wal mutations failed"; exit 1; }
curl -fsS -X POST "http://$SERVE4/admin/snapshot" >/dev/null
lastack=$(apply_batches "$SERVE4" "$half" "$KILLAT4") || { echo "SMOKE FAIL: wal mutations failed"; exit 1; }

# SIGKILL the entire deployment mid-load: nothing gets to flush or drain.
kill -9 "$ctrl4" "$w4a" "$w4b" >/dev/null 2>&1 || true
wait "$ctrl4" "$w4a" "$w4b" >/dev/null 2>&1 || true
sleep 1

start_d4 0
start_d4 1
sleep 1
start_d4 controller; ctrl4b=$!
wait_healthy "$SERVE4" || { echo "SMOKE FAIL: wal deployment did not restart"; exit 1; }

fail=0
ver4=$(curl -fsS "http://$SERVE4/healthz" | sed -n 's/.*"graph_version":\([0-9]*\).*/\1/p')
[ -n "$lastack" ] && [ "${ver4:-0}" -eq "$lastack" ] || {
  echo "SMOKE FAIL: recovered version $ver4 != last acked version $lastack (lost or duplicated ops)"; fail=1; }
grep -q 'wal replayed versions' "$workdir/d4-ctrl.log" || {
  echo "SMOKE FAIL: restart did not replay the WAL tail"; fail=1; }
curl -fsS "http://$SERVE4/stats" | grep -q '"wal":{"enabled":true' || {
  echo "SMOKE FAIL: /stats wal block missing or disabled"; fail=1; }

# Finish the stream and compare against the never-crashed control.
ver4b=$(apply_batches "$SERVE4" "$KILLAT4" "$NBATCH4") || { echo "SMOKE FAIL: post-restart mutations failed"; fail=1; }
ref4=$(curl -fsS "http://$SERVE4/query" -d '{"kind":"sssp","source":0,"target":999,"no_cache":true}')
val4=$(sed -n 's/.*"value":\([0-9.e+-]*\|null\).*/\1/p' <<<"$ref4")
[ -n "$verc" ] && [ "${ver4b:-0}" -eq "$verc" ] || {
  echo "SMOKE FAIL: final version $ver4b != control $verc"; fail=1; }
[ -n "$valc" ] && [ "$val4" = "$valc" ] || {
  echo "SMOKE FAIL: crashed run answers $val4, control answers $valc"; fail=1; }

kill -INT "$ctrl4b" >/dev/null 2>&1 || true
wait "$ctrl4b" || true

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "SMOKE OK: kill -9 at version $lastack, restart recovered exactly v$ver4; final v$ver4b answer $val4 == control"

# ---------------------------------------------------------------------------
# Scenario 5: active health layer — worker 0 is deterministically slow
# (the worker/compute-slow faultpoint armed by -fault-slow-compute), so
# under mixed load the straggler watchdog must fire on its defaults (the
# 5ms worker is ~50x its peers, the detector's k is 4): an
# event_straggler on /events naming worker 0, /healthz degraded with a
# stragglers field, and qgraph_worker_step_ewma_ms on /metrics showing
# worker 0 far above its peers. (The recover-to-ok half of the cycle is
# covered race-clean by TestStragglerWatchdogEndToEnd.)

ADDRS5="127.0.0.1:7761,127.0.0.1:7762,127.0.0.1:7763,127.0.0.1:7764"
SERVE5="127.0.0.1:7805"

"$workdir/qgraphd" -role worker -id 0 -graph "$workdir/g.qgr" -addrs "$ADDRS5" \
  -fault-slow-compute 5ms >>"$workdir/w5-0.log" 2>&1 &
"$workdir/qgraphd" -role worker -id 1 -graph "$workdir/g.qgr" -addrs "$ADDRS5" &
"$workdir/qgraphd" -role worker -id 2 -graph "$workdir/g.qgr" -addrs "$ADDRS5" &
sleep 1
"$workdir/qgraphd" -role controller -graph "$workdir/g.qgr" -addrs "$ADDRS5" \
  -serve "$SERVE5" -commit-every 100ms &
ctrl5=$!
wait_healthy "$SERVE5" || { echo "SMOKE FAIL: scenario-5 deployment never healthy"; exit 1; }

out5=$("$workdir/qgraph-bench" -load "http://$SERVE5" -rate 100 -load-duration 6s \
  -load-pool 32 -mutate-rate 50 -mutate-batch 20 \
  -mutations "$workdir/g.qgr.mut")
echo "$out5"

# Degraded /healthz answers 503, so plain -s (not -f) from here on.
health5=$(curl -s "http://$SERVE5/healthz")
echo "$health5"
events5=$(curl -s "http://$SERVE5/events?type=event_straggler")
metrics5=$(curl -s "http://$SERVE5/metrics")

kill -INT "$ctrl5" >/dev/null 2>&1 || true
wait "$ctrl5" || true

fail=0

grep -q '"type":"event_straggler"' <<<"$events5" || { echo "SMOKE FAIL: no event_straggler in /events"; fail=1; }
grep -q '"worker":0' <<<"$events5" || { echo "SMOKE FAIL: straggler event does not name worker 0"; fail=1; }

grep -q '"status":"degraded"' <<<"$health5" || { echo "SMOKE FAIL: /healthz not degraded under a straggler"; fail=1; }
grep -q '"stragglers":\[0\]' <<<"$health5" || { echo "SMOKE FAIL: /healthz missing stragglers field"; fail=1; }

# The per-worker step gauge shows worker 0 well above its peers (at least
# 4x, the detector's k, over the slowest of them).
ewma5=$(grep '^qgraph_worker_step_ewma_ms{' <<<"$metrics5" || true)
echo "$ewma5"
awk '/worker="0"/ { w0 = $2; next } { if ($2 > peer) peer = $2; n++ }
  END { exit (n > 0 && w0 > 4 * peer && w0 >= 1 ? 0 : 1) }' <<<"$ewma5" || {
  echo "SMOKE FAIL: qgraph_worker_step_ewma_ms does not show worker 0 well above its peers"; fail=1; }

# Health metric families and the heartbeat RTT gauge are on /metrics.
grep -q '^qgraph_health_stragglers_total [1-9]' <<<"$metrics5" || { echo "SMOKE FAIL: straggler counter not on /metrics"; fail=1; }
grep -q 'qgraph_worker_ping_rtt_seconds{worker="0"}' <<<"$metrics5" || { echo "SMOKE FAIL: heartbeat RTT gauge missing"; fail=1; }

if [ "$fail" -ne 0 ]; then
  exit 1
fi
stragglerev=$(grep -o '"msg":"[^"]*"' <<<"$events5" | head -1)
echo "SMOKE OK: straggler detected under mixed load (${stragglerev})"

# ---------------------------------------------------------------------------
# Scenario 8: the MVCC commit pipeline — mutations commit off the global
# barrier. Three phases against one WAL-durable deployment running hot
# commits (-commit-every 1ms -max-batch-ops 5: every POST seals its own
# version on arrival). (a) Sustained mutate load under a PageRank-only
# read mix: zero failed/stalled readers while hundreds of versions
# commit, and a long PageRank probed mid-stream answers from its pinned
# version while the committed version moves past it. (b) The version
# chain is strictly monotone and the /mutate response header matches the
# body (read-your-writes). (c) kill -9 the whole deployment while six
# concurrent writers keep the group committer busy: the restart must
# recover at least every acknowledged version (durable-but-unacked
# in-flight batches may survive — at most one per writer), the WAL head
# must equal the recovered graph, and the chain must continue gap-free.

ADDRS8="127.0.0.1:7791,127.0.0.1:7792,127.0.0.1:7793"
SERVE8="127.0.0.1:7814"
SNAP8="$workdir/snaps8"
WAL8="$workdir/wal8"
mkdir -p "$SNAP8" "$WAL8"

start_d8() { # id-or-controller
  if [ "$1" = controller ]; then
    "$workdir/qgraphd" -role controller -graph "$workdir/g.qgr" -addrs "$ADDRS8" \
      -serve "$SERVE8" -commit-every 1ms -max-batch-ops 5 \
      -snapshot-dir "$SNAP8" -wal-dir "$WAL8" >>"$workdir/d8-ctrl.log" 2>&1 &
  else
    "$workdir/qgraphd" -role worker -id "$1" -graph "$workdir/g.qgr" -addrs "$ADDRS8" \
      -snapshot-dir "$SNAP8" -wal-dir "$WAL8" >>"$workdir/d8-w$1.log" 2>&1 &
  fi
}

start_d8 0; w8a=$!
start_d8 1; w8b=$!
sleep 1
start_d8 controller; ctrl8=$!
wait_healthy "$SERVE8" || { echo "SMOKE FAIL: scenario-8 deployment never healthy"; exit 1; }

fail=0

# (a) Long readers over a hot write plane. The bench read mix is pure
# PageRank (the longest queries the engine has) while 8 writers stream
# mutations; any reader the commit path stalled past its client timeout
# would surface as client_timeout/failed > 0.
ver8a=$(curl -fsS "http://$SERVE8/healthz" | sed -n 's/.*"graph_version":\([0-9]*\).*/\1/p')
"$workdir/qgraph-bench" -load "http://$SERVE8" -rate 30 -load-duration 8s \
  -load-pool 32 -load-timeout 15s -load-mix "pagerank=1.0" \
  -mutate-rate 2000 -mutate-batch 5 -mutate-writers 8 \
  >"$workdir/d8-bench.out" 2>&1 &
bench8=$!
sleep 2

# Mid-stream probe: a PageRank issued now pins the version at admission
# and must answer from it, even though commits keep racing past. The
# response header carrying a version below the post-query committed
# version is the observable MVCC fact: the reader was not quiesced, the
# writers were not blocked.
vq0=$(curl -fsS "http://$SERVE8/healthz" | sed -n 's/.*"graph_version":\([0-9]*\).*/\1/p')
curl -fsS -D "$workdir/d8-head.txt" "http://$SERVE8/query" \
  -d '{"kind":"pagerank","source":0,"no_cache":true}' >/dev/null || {
  echo "SMOKE FAIL: mid-stream pagerank failed"; fail=1; }
# The eight writers start together and each posts one batch per 20 ms
# (5 ops at 250 ops/s), so commits arrive in bursts 20 ms apart. A
# PageRank pinned after one burst can return before the next, and reading
# vq1 at once would see hpin == vq1 with nothing wrong; wait out more than
# one burst period so at least one commit lands between pin and probe.
sleep 0.05
vq1=$(curl -fsS "http://$SERVE8/healthz" | sed -n 's/.*"graph_version":\([0-9]*\).*/\1/p')
hpin=$(sed -n 's/^X-Qgraph-Version: *\([0-9]*\).*/\1/Ip' "$workdir/d8-head.txt")
[ -n "$hpin" ] && [ "${vq0:-0}" -le "$hpin" ] && [ "$hpin" -lt "${vq1:-0}" ] || {
  echo "SMOKE FAIL: pagerank pinned v${hpin:-?} outside [$vq0, $vq1): readers and writers are not overlapping"; fail=1; }

wait "$bench8" || true
cat "$workdir/d8-bench.out"
qline8=$(grep -m1 '^sent=' "$workdir/d8-bench.out")
okq8=$(sed -n 's/.* ok=\([0-9]*\).*/\1/p' <<<"$qline8")
failedq8=$(sed -n 's/.* failed=\([0-9]*\).*/\1/p' <<<"$qline8")
touts8=$(sed -n 's/.*client_timeout=\([0-9]*\).*/\1/p' <<<"$qline8")
[ "${okq8:-0}" -gt 0 ] || { echo "SMOKE FAIL: no PageRanks completed under write load"; fail=1; }
[ "${failedq8:-1}" -eq 0 ] || { echo "SMOKE FAIL: $failedq8 readers failed under write load"; fail=1; }
[ "${touts8:-1}" -eq 0 ] || { echo "SMOKE FAIL: $touts8 readers stalled past the client timeout"; fail=1; }
mline8=$(grep -m1 '^mutations: writers=' "$workdir/d8-bench.out")
failedm8=$(sed -n 's/.*failed=\([0-9]*\).*/\1/p' <<<"$mline8")
[ "${failedm8:-1}" -eq 0 ] || { echo "SMOKE FAIL: $failedm8 mutation ops failed"; fail=1; }

ver8b=$(curl -fsS "http://$SERVE8/healthz" | sed -n 's/.*"graph_version":\([0-9]*\).*/\1/p')
[ $(( ver8b - ver8a )) -ge 100 ] || {
  echo "SMOKE FAIL: only $(( ver8b - ver8a )) versions committed under sustained load"; fail=1; }

sleep 1
stats8=$(curl -fsS "http://$SERVE8/stats")
grep -q '"pinned_readers":0' <<<"$stats8" || { echo "SMOKE FAIL: reader pins leaked after quiescence"; fail=1; }
peak8=$(sed -n 's/.*"peak_live_versions":\([0-9]*\).*/\1/p' <<<"$stats8")
[ "${peak8:-0}" -ge 2 ] || { echo "SMOKE FAIL: peak live versions $peak8 — no MVCC overlap ever happened"; fail=1; }

# (b) Monotone version chain + read-your-writes header. Ten serial
# batches: each ack's version must strictly exceed the previous, and the
# X-QGraph-Version header must equal the body's version.
prev8=$ver8b
for b in $(seq 0 9); do
  resp=$(curl -fsS -D "$workdir/d8-mhead.txt" "http://$SERVE8/mutate" -d "$(mut_body "$b")") || {
    echo "SMOKE FAIL: serial mutate batch $b failed"; fail=1; break; }
  mver=$(sed -n 's/.*"version":\([0-9]*\).*/\1/p' <<<"$resp")
  hver=$(sed -n 's/^X-Qgraph-Version: *\([0-9]*\).*/\1/Ip' "$workdir/d8-mhead.txt")
  [ "${mver:-0}" -gt "$prev8" ] || { echo "SMOKE FAIL: version chain not monotone ($mver after $prev8)"; fail=1; break; }
  [ "$hver" = "$mver" ] || { echo "SMOKE FAIL: /mutate header v${hver:-?} != body v$mver"; fail=1; break; }
  prev8=$mver
done

# (c) kill -9 mid-group-commit. Six closed-loop writers keep sealed
# batches and shared fsyncs continuously in flight; the SIGKILL lands
# with acks outstanding. Each writer records every version it saw acked.
writer8() { # index; cycles its own batch range until the server dies
  local i=$1 b resp ver
  while :; do
    for b in $(seq $(( 10 + i * 10 )) $(( 19 + i * 10 ))); do
      resp=$(curl -fsS --max-time 5 "http://$SERVE8/mutate" -d "$(mut_body "$b")" 2>/dev/null) || return 0
      ver=$(sed -n 's/.*"version":\([0-9]*\).*/\1/p' <<<"$resp")
      [ -n "$ver" ] && echo "$ver" >>"$workdir/d8-acks-$i.txt"
    done
  done
}
w8pids=""
for i in 0 1 2 3 4 5; do
  writer8 "$i" &
  w8pids="$w8pids $!"
done
sleep 2.5
kill -9 "$ctrl8" "$w8a" "$w8b" >/dev/null 2>&1 || true
wait "$ctrl8" "$w8a" "$w8b" >/dev/null 2>&1 || true
# shellcheck disable=SC2086  # word-splitting is the point: one PID per arg
wait $w8pids >/dev/null 2>&1 || true

lastack8=$(cat "$workdir"/d8-acks-*.txt 2>/dev/null | sort -n | tail -1)
[ "${lastack8:-0}" -gt "$prev8" ] || { echo "SMOKE FAIL: writers never got an ack before the kill"; fail=1; }

start_d8 0
start_d8 1
sleep 1
start_d8 controller; ctrl8b=$!
wait_healthy "$SERVE8" || { echo "SMOKE FAIL: scenario-8 deployment did not restart"; exit 1; }

ver8c=$(curl -fsS "http://$SERVE8/healthz" | sed -n 's/.*"graph_version":\([0-9]*\).*/\1/p')
[ "${ver8c:-0}" -ge "${lastack8:-1}" ] || {
  echo "SMOKE FAIL: recovered v$ver8c lost acked version $lastack8"; fail=1; }
[ $(( ver8c - lastack8 )) -le 6 ] || {
  echo "SMOKE FAIL: recovered v$ver8c is $(( ver8c - lastack8 )) past the last ack — more than the 6 possible in-flight batches"; fail=1; }
grep -q 'wal replayed versions' "$workdir/d8-ctrl.log" || {
  echo "SMOKE FAIL: scenario-8 restart did not replay the WAL tail"; fail=1; }
walhead8=$(curl -fsS "http://$SERVE8/stats" | sed -n 's/.*"head_version":\([0-9]*\).*/\1/p')
[ "${walhead8:-0}" -eq "${ver8c:-1}" ] || {
  echo "SMOKE FAIL: WAL head v$walhead8 != recovered graph v$ver8c"; fail=1; }

# The chain continues gap-free: one quiet POST lands at exactly v+1. The
# batch names base-graph vertices only — how far the writers above got
# before the kill decides which added vertices exist.
resp8=$(curl -fsS "http://$SERVE8/mutate" -d '{"ops":[{"op":"add_edge","from":0,"to":1,"weight":2.5}]}') || { echo "SMOKE FAIL: post-restart mutate failed"; fail=1; }
ver8d=$(sed -n 's/.*"version":\([0-9]*\).*/\1/p' <<<"$resp8")
[ "${ver8d:-0}" -eq $(( ver8c + 1 )) ] || {
  echo "SMOKE FAIL: post-restart version $ver8d != $(( ver8c + 1 )) — the chain has a gap"; fail=1; }

kill -INT "$ctrl8b" >/dev/null 2>&1 || true
wait "$ctrl8b" || true

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "SMOKE OK: pagerank pinned v$hpin while commits ran to v$vq1, ${okq8} readers unstalled over $(( ver8b - ver8a )) versions, kill -9 recovered v$ver8c >= last ack v$lastack8, chain resumed at v$ver8d"
