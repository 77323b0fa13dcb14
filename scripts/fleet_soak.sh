#!/usr/bin/env bash
# Fleet soak: the durability acceptance scenario (DESIGN.md §13). A
# 3-worker fleet runs under concurrent loadgen traffic while the harness
# SIGKILLs (not SIGTERMs — no drain, no cleanup) first a worker and then
# the coordinator, both of which restart on their original state:
#
#   * an async sweep accepted by the killed worker must survive via the
#     job journal — replayed after restart under its original job id,
#     marked recovered, results complete (zero lost jobs);
#   * the restarted coordinator must merge the reference sweep
#     byte-identically to its pre-crash output;
#   * a tiny-capacity daemon under loadgen overload must shed with 429 +
#     Retry-After (never silent queuing), and an expired end-to-end
#     deadline must resolve every cell as the in-band error line.
#
# CI runs it in the soak shard (~60s); locally: scripts/fleet_soak.sh
set -euo pipefail

CPORT="${SOAK_COORD_PORT:-19090}"
WPORT1="${SOAK_W1_PORT:-19091}"
WPORT2="${SOAK_W2_PORT:-19092}"
WPORT3="${SOAK_W3_PORT:-19093}"
OPORT="${SOAK_OVERLOAD_PORT:-19094}"
COORD="http://127.0.0.1:${CPORT}"
W1="http://127.0.0.1:${WPORT1}"
DIR="$(mktemp -d)"
PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true; sleep 0.2; rm -rf "$DIR" 2>/dev/null || true' EXIT

echo "== build"
go build -o "$DIR/hdlsd" ./cmd/hdlsd
go build -o "$DIR/loadgen" ./cmd/loadgen

wait_healthy() {
  for i in $(seq 1 50); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "daemon at $1 never became healthy"
  cat "$DIR"/*.log || true
  exit 1
}

start_worker() { # port
  "$DIR/hdlsd" -addr "127.0.0.1:$1" -workers 1 \
    -cache-dir "$DIR/cas-$1" -journal-dir "$DIR/journal-$1" \
    >>"$DIR/worker-$1.log" 2>&1 &
  PIDS+=($!)
}
start_coordinator() {
  "$DIR/hdlsd" -role coordinator -addr "127.0.0.1:${CPORT}" \
    -peers "http://127.0.0.1:${WPORT1},http://127.0.0.1:${WPORT2},http://127.0.0.1:${WPORT3}" \
    -breaker-failures 2 -breaker-cooldown 500ms -backoff 50ms \
    -cell-timeout 30s -probe-interval 250ms >>"$DIR/coordinator.log" 2>&1 &
  PIDS+=($!)
}

echo "== start 3 journaled workers + coordinator"
start_worker "$WPORT1"; W1_PID=$!
start_worker "$WPORT2"
start_worker "$WPORT3"
start_coordinator; COORD_PID=$!
for p in "$WPORT1" "$WPORT2" "$WPORT3" "$CPORT"; do
  wait_healthy "http://127.0.0.1:${p}"
done

echo "== reference sweep through the coordinator (pre-crash baseline)"
python3 - "$DIR/sweep.json" <<'EOF'
import json, sys
inters = ["STATIC", "GSS", "TSS", "FAC2"]
cells = [{
    "nodes": 2, "workers_per_node": 4,
    "inter": inters[i % 4], "intra": "STATIC", "approach": "MPI+MPI",
    "seed": i + 1, "workload": "gaussian:n=65536,cv=0.5",
} for i in range(48)]
json.dump({"cells": cells}, open(sys.argv[1], "w"))
EOF
curl -fsSN -H 'Content-Type: application/json' --data-binary "@$DIR/sweep.json" \
  "$COORD/v1/sweep?stream=1" -o "$DIR/expected.ndjson"
[ "$(wc -l <"$DIR/expected.ndjson")" = 48 ] || { echo "baseline incomplete"; exit 1; }

echo "== background load against the coordinator"
"$DIR/loadgen" -target "$COORD" -clients 3 -duration 20s \
  -cells 6 -workload 'constant:n=16384' >"$DIR/loadgen.json" 2>"$DIR/loadgen.log" &
LOADGEN_PID=$!
PIDS+=($!)

echo "== async sweep accepted by worker 1, then SIGKILL it mid-flight"
# Heavy cells on a 1-thread worker: demonstrably incomplete when the kill
# lands, so recovery really replays work instead of rubber-stamping. SS/SS
# cells contend on every iteration, so every lock attempt costs simulated
# port traffic — several hundred ms each, wall-clock.
python3 - "$DIR/job.json" <<'EOF'
import json, sys
cells = [{
    "nodes": 8, "workers_per_node": 16,
    "inter": "SS", "intra": "SS", "approach": "MPI+MPI",
    "seed": 7000 + i, "workload": "gaussian:n=131072,cv=0.5",
} for i in range(12)]
json.dump({"cells": cells}, open(sys.argv[1], "w"))
EOF
curl -fsS -H 'Content-Type: application/json' --data-binary "@$DIR/job.json" \
  "$W1/v1/sweep" -o "$DIR/accepted.json"
JOB_ID=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["job_id"])' "$DIR/accepted.json")
[ -n "$JOB_ID" ] || { echo "no job id in $(cat "$DIR/accepted.json")"; exit 1; }
ls "$DIR/journal-${WPORT1}/" | grep -q "^${JOB_ID}\." || {
  echo "accepted job $JOB_ID has no journal entry"
  ls -la "$DIR/journal-${WPORT1}/"
  curl -s "$W1/metrics" | grep -E 'journal|recovered'
  tail -5 "$DIR/worker-${WPORT1}.log"
  exit 1; }
sleep 0.5 # let the job get demonstrably in flight
kill -9 "$W1_PID"
wait "$W1_PID" 2>/dev/null || true

echo "== restart worker 1 on its journal + cache dirs"
start_worker "$WPORT1"
wait_healthy "$W1"
curl -fsS "$W1/metrics" -o "$DIR/w1-metrics.txt"
grep -q '^hdlsd_jobs_recovered_total 1' "$DIR/w1-metrics.txt" || {
  echo "restarted worker did not recover the journaled job"
  grep -E 'recover|journal' "$DIR/w1-metrics.txt"; exit 1; }

echo "== recovered job completes under its original id, zero lost jobs"
for i in $(seq 1 300); do
  STATUS=$(curl -fsS "$W1/v1/jobs/$JOB_ID" || echo '{}')
  if echo "$STATUS" | grep -q '"status":"done"'; then break; fi
  if [ "$i" = 300 ]; then echo "recovered job never finished: $STATUS"; exit 1; fi
  sleep 0.2
done
echo "$STATUS" | grep -q '"recovered":true' || {
  echo "job status lost the recovered marker: $STATUS"; exit 1; }
curl -fsS "$W1/v1/jobs/$JOB_ID/results" -o "$DIR/recovered.ndjson"
[ "$(wc -l <"$DIR/recovered.ndjson")" = 12 ] || {
  echo "recovered job returned $(wc -l <"$DIR/recovered.ndjson")/12 cells"; exit 1; }
if grep -q '"error"' "$DIR/recovered.ndjson"; then
  echo "recovered job has error cells"; grep '"error"' "$DIR/recovered.ndjson"; exit 1
fi
# The terminal append + journal removal runs in the completion path; give
# it a beat past the status flip.
for i in $(seq 1 25); do
  if [ -z "$(ls "$DIR/journal-${WPORT1}/")" ]; then break; fi
  if [ "$i" = 25 ]; then
    echo "journal not cleared after completion"; ls "$DIR/journal-${WPORT1}/"; exit 1
  fi
  sleep 0.2
done

echo "== SIGKILL the coordinator under load, restart it"
kill -9 "$COORD_PID"
wait "$COORD_PID" 2>/dev/null || true
start_coordinator
wait_healthy "$COORD"

echo "== restarted coordinator merges the reference sweep byte-identically"
curl -fsSN -H 'Content-Type: application/json' --data-binary "@$DIR/sweep.json" \
  "$COORD/v1/sweep?stream=1" -o "$DIR/replayed.ndjson"
cmp "$DIR/expected.ndjson" "$DIR/replayed.ndjson" || {
  echo "post-crash merged stream differs from the pre-crash baseline"; exit 1; }

echo "== loadgen rode through both crashes"
wait "$LOADGEN_PID" || { echo "loadgen failed"; cat "$DIR/loadgen.log"; exit 1; }
python3 - "$DIR/loadgen.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["sweeps"] > 0, s
assert s["lines"] > 0, s
print(f'   loadgen: {s["sweeps"]} sweeps, {s["lines"]} lines, '
      f'{s["transport_errors"]} transport errors across the crashes')
EOF

echo "== overload sheds with 429 + Retry-After, never silent queuing"
"$DIR/hdlsd" -addr "127.0.0.1:${OPORT}" -workers 1 -max-active-jobs 1 \
  >"$DIR/overload.log" 2>&1 &
PIDS+=($!)
wait_healthy "http://127.0.0.1:${OPORT}"
"$DIR/loadgen" -target "http://127.0.0.1:${OPORT}" -clients 4 -duration 4s \
  -cells 64 -workload 'gaussian:n=524288,cv=0.5' >"$DIR/overload.json" 2>&1
python3 - "$DIR/overload.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["statuses"].get("429", 0) > 0, s
assert s["retry_after_seen"] > 0, s
print(f'   overload: {s["statuses"]["429"]} sheds, '
      f'{s["retry_after_seen"]} Retry-After hints honored')
EOF
curl -fsS "http://127.0.0.1:${OPORT}/metrics" -o "$DIR/overload-metrics.txt"
grep -q '^hdlsd_jobs_shed_total [1-9]' "$DIR/overload-metrics.txt" || {
  echo "sheds not counted on /metrics"; exit 1; }

echo "== an expired end-to-end deadline resolves in-band"
curl -fsSN -H 'Content-Type: application/json' -H 'X-Deadline: 2020-01-01T00:00:00Z' \
  --data-binary "@$DIR/sweep.json" "$COORD/v1/sweep?stream=1" -o "$DIR/expired.ndjson"
[ "$(grep -c '"error":"deadline exceeded"' "$DIR/expired.ndjson")" = 48 ] || {
  echo "expired sweep did not resolve every cell in-band"
  head -3 "$DIR/expired.ndjson"; exit 1; }

echo "fleet soak: OK"
