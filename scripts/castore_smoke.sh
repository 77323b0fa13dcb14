#!/usr/bin/env bash
# Result-store end-to-end smoke (DESIGN.md §12): a daemon with a disk tier
# computes a cell and a 16-cell sweep, is SIGTERMed (drain flushes pending
# disk writes), and is restarted on the same directory — the warm replay
# must be byte-identical and served as X-Cache: hit-disk without touching
# the engine. A copy of the log cut inside its last record then restarts
# as a crash mid-append leaves it: that cell recomputes, every other one
# replays from disk. A last section starts a two-worker fleet where
# worker 2 peer-fills from worker 1 (X-Cache: hit-peer, byte-identical,
# peer-hits metric visible). CI runs it in the castore shard; locally:
# scripts/castore_smoke.sh
set -euo pipefail

PORT="${CASTORE_PORT:-19180}"
W1PORT="${CASTORE_W1_PORT:-19181}"
W2PORT="${CASTORE_W2_PORT:-19182}"
BASE="http://127.0.0.1:${PORT}"
DIR="$(mktemp -d)"
PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "== build"
go build -o "$DIR/hdlsd" ./cmd/hdlsd

wait_healthy() {
  for i in $(seq 1 50); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "daemon at $1 never became healthy"
  cat "$DIR"/*.log || true
  exit 1
}

wait_exit() { # pid logfile
  for i in $(seq 1 50); do
    kill -0 "$1" 2>/dev/null || break
    if [ "$i" = 50 ]; then echo "daemon $1 did not exit after SIGTERM"; exit 1; fi
    sleep 0.2
  done
  wait "$1" 2>/dev/null || true
  grep -q 'drained, exiting' "$2" || { echo "no drain log in $2"; cat "$2"; exit 1; }
}

echo "== cold daemon with a disk tier"
"$DIR/hdlsd" -addr "127.0.0.1:${PORT}" -workers 4 -cache-dir "$DIR/cas" \
  >"$DIR/cold.log" 2>&1 &
COLD_PID=$!
PIDS+=("$COLD_PID")
wait_healthy "$BASE"

CELL='{"app":"Mandelbrot","nodes":2,"workers_per_node":8,"inter":"GSS","intra":"STATIC","approach":"MPI+MPI","workload":"gaussian:n=2048,cv=0.5"}'
curl -fsS -D "$DIR/h-cold" -d "$CELL" "$BASE/v1/run" -o "$DIR/run-cold.json"
grep -qi '^x-cache: miss' "$DIR/h-cold" || { echo "cold run should miss"; cat "$DIR/h-cold"; exit 1; }

python3 - "$DIR/sweep.json" <<'PYEOF'
import json, sys
inters = ["STATIC", "GSS", "TSS", "FAC2"]
cells = [{"inter": inters[i % 4], "intra": "SS", "approach": "MPI+MPI",
          "nodes": 2, "workers_per_node": 8, "seed": 700 + i // 4,
          "workload": "gaussian:n=1024,cv=0.4"} for i in range(16)]
json.dump({"cells": cells}, open(sys.argv[1], "w"))
PYEOF
curl -fsSN -d @"$DIR/sweep.json" "$BASE/v1/sweep?stream=1" -o "$DIR/sweep-cold.ndjson"
[ "$(wc -l <"$DIR/sweep-cold.ndjson")" = 16 ] || { echo "expected 16 NDJSON lines"; exit 1; }

echo "== SIGTERM: the drain flushes the disk tier"
kill -TERM "$COLD_PID"
wait_exit "$COLD_PID" "$DIR/cold.log"

# log_records LOG [cut]: prints the log's put-record count; with cut, also
# truncates the log inside its last record and prints that record's hash.
# The format is internal/castore/disk.go's: a 32-byte file header, then
# records of a 52-byte header (magic, CRC, kind, u32le length at bytes
# 16:20, hash at 20:52) and a body.
log_records() {
  python3 - "$@" <<'PYEOF'
import struct, sys
path = sys.argv[1]
raw = open(path, "rb").read()
off, puts, last = 32, 0, None
while off + 52 <= len(raw) and raw[off:off + 8] == b"HDLSCREC":
    kind, n = struct.unpack_from("<II", raw, off + 12)
    if off + 52 + n > len(raw):
        break
    if kind == 1:
        puts, last = puts + 1, (off, n, raw[off + 20:off + 52].hex())
    off += 52 + n
print(puts)
if len(sys.argv) > 2:
    cut_off, n, h = last
    open(path, "r+b").truncate(cut_off + 52 + n // 2)
    print(h)
PYEOF
}
PUTS=$(log_records "$DIR/cas/results.log")
[ "$PUTS" -ge 17 ] || {
  echo "disk log has $PUTS put records, want >= 17"; ls -la "$DIR/cas"; exit 1; }
cp -r "$DIR/cas" "$DIR/cas-torn"

echo "== restart on the same directory: warm replay from disk"
"$DIR/hdlsd" -addr "127.0.0.1:${PORT}" -workers 4 -cache-dir "$DIR/cas" \
  >"$DIR/warm.log" 2>&1 &
WARM_PID=$!
PIDS+=("$WARM_PID")
wait_healthy "$BASE"

curl -fsS -D "$DIR/h-warm" -d "$CELL" "$BASE/v1/run" -o "$DIR/run-warm.json"
grep -qi '^x-cache: hit-disk' "$DIR/h-warm" || { echo "restarted run should hit disk"; cat "$DIR/h-warm"; exit 1; }
cmp "$DIR/run-cold.json" "$DIR/run-warm.json" || { echo "disk replay not byte-identical"; exit 1; }

curl -fsSN -d @"$DIR/sweep.json" "$BASE/v1/sweep?stream=1" -o "$DIR/sweep-warm.ndjson"
cmp "$DIR/sweep-cold.ndjson" "$DIR/sweep-warm.ndjson" || {
  echo "restarted sweep not byte-identical"; exit 1; }

curl -fsS "$BASE/metrics" >"$DIR/metrics-warm"
grep -q '^hdlsd_cache_disk_hits_total 1[7-9]' "$DIR/metrics-warm" || {
  echo "disk-hit counter off (want 17: 1 cell + 16 sweep cells)"
  grep cache "$DIR/metrics-warm"; exit 1; }
grep -q '^hdlsd_cache_disk_entries 1[7-9]' "$DIR/metrics-warm"

kill -TERM "$WARM_PID"
wait_exit "$WARM_PID" "$DIR/warm.log"

echo "== torn tail: the log cut inside its last record"
TORN_HASH=$(log_records "$DIR/cas-torn/results.log" cut | tail -n 1)
"$DIR/hdlsd" -addr "127.0.0.1:${PORT}" -workers 4 -cache-dir "$DIR/cas-torn" \
  >"$DIR/torn.log" 2>&1 &
TORN_PID=$!
PIDS+=("$TORN_PID")
wait_healthy "$BASE"
curl -fsS -D "$DIR/h-torn" -d "$CELL" "$BASE/v1/run" -o "$DIR/run-torn.json"
cmp "$DIR/run-cold.json" "$DIR/run-torn.json" || { echo "torn-log run not byte-identical"; exit 1; }
RUN_HASH=$(grep -i '^x-config-hash:' "$DIR/h-torn" | tr -d '\r' | awk '{print $2}')
WANT_RUN=hit-disk
[ "$RUN_HASH" = "$TORN_HASH" ] && WANT_RUN=miss
grep -qi "^x-cache: $WANT_RUN" "$DIR/h-torn" || {
  echo "torn-log run should read $WANT_RUN"; cat "$DIR/h-torn"; exit 1; }
curl -fsSN -d @"$DIR/sweep.json" "$BASE/v1/sweep?stream=1" -o "$DIR/sweep-torn.ndjson"
cmp "$DIR/sweep-cold.ndjson" "$DIR/sweep-torn.ndjson" || {
  echo "torn-log sweep not byte-identical"; exit 1; }
curl -fsS "$BASE/metrics" >"$DIR/metrics-torn"
grep -q '^hdlsd_cache_disk_hits_total 16$' "$DIR/metrics-torn" &&
  grep -q '^hdlsd_cache_misses_total 1$' "$DIR/metrics-torn" &&
  grep -q '^hdlsd_cache_disk_corruptions_total 0$' "$DIR/metrics-torn" || {
  echo "torn-log restart should recompute exactly the torn cell (16 disk hits, 1 miss)"
  grep cache "$DIR/metrics-torn"; exit 1; }
kill -TERM "$TORN_PID"
wait_exit "$TORN_PID" "$DIR/torn.log"

echo "== two-worker fleet: worker 2 peer-fills from worker 1"
"$DIR/hdlsd" -addr "127.0.0.1:${W1PORT}" -workers 2 -cache-dir "$DIR/cas-w1" \
  >"$DIR/w1.log" 2>&1 &
PIDS+=($!)
wait_healthy "http://127.0.0.1:${W1PORT}"
"$DIR/hdlsd" -addr "127.0.0.1:${W2PORT}" -workers 2 \
  -cache-peers "http://127.0.0.1:${W1PORT}" -cache-peer-timeout 2s \
  >"$DIR/w2.log" 2>&1 &
PIDS+=($!)
wait_healthy "http://127.0.0.1:${W2PORT}"

curl -fsS -d "$CELL" "http://127.0.0.1:${W1PORT}/v1/run" -o "$DIR/run-w1.json"
curl -fsS -D "$DIR/h-w2" -d "$CELL" "http://127.0.0.1:${W2PORT}/v1/run" -o "$DIR/run-w2.json"
grep -qi '^x-cache: hit-peer' "$DIR/h-w2" || { echo "worker 2 should peer-fill"; cat "$DIR/h-w2"; exit 1; }
cmp "$DIR/run-w1.json" "$DIR/run-w2.json" || { echo "peer fill not byte-identical"; exit 1; }
cmp "$DIR/run-cold.json" "$DIR/run-w2.json" || { echo "peer fill differs from the original compute"; exit 1; }

curl -fsS "http://127.0.0.1:${W2PORT}/metrics" >"$DIR/metrics-w2"
grep -q '^hdlsd_cache_peer_hits_total [1-9]' "$DIR/metrics-w2" || {
  echo "peer-hit counter missing"; grep cache "$DIR/metrics-w2"; exit 1; }

echo "== the /v1/cache endpoint serves raw stored bytes, local-only"
HASH=$(grep -i '^x-config-hash:' "$DIR/h-w2" | tr -d '\r' | awk '{print $2}')
[ -n "$HASH" ] || { echo "no X-Config-Hash header"; cat "$DIR/h-w2"; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:${W1PORT}/v1/cache/$HASH")
[ "$CODE" = 200 ] || { echo "peer cache lookup: $CODE"; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:${W1PORT}/v1/cache/$(printf '0%.0s' $(seq 64))")
[ "$CODE" = 404 ] || { echo "unknown hash should 404, got $CODE"; exit 1; }

echo "castore smoke: OK"
