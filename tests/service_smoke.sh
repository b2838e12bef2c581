#!/usr/bin/env bash
# End-to-end smoke of the simulation service (docs/SERVICE.md):
#
#  1. start grit_serve, submit the same cell from two concurrent
#     clients — the cell must execute exactly once (in-flight dedupe
#     or store hit), and both clients' grit-results documents must be
#     byte-identical;
#  2. kill -9 the daemon (no drain), restart it on the same store —
#     the cell must come back as a cache hit, byte-identical again,
#     with zero re-executions;
#  3. SIGTERM the restarted daemon — it must drain, write the
#     service-counters document, and exit 0;
#  4. every emitted JSON document must validate against the
#     grit-results schema checker.
#
# Usage: service_smoke.sh GRIT_SERVE GRIT_SUBMIT WORKDIR CHECKER

set -u

SERVE=$1
SUBMIT=$2
WORKDIR=$3
CHECKER=$4

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
# Unix socket paths are limited to ~107 bytes; build trees can exceed
# that, so the socket lives under TMPDIR.
SOCK_DIR=$(mktemp -d "${TMPDIR:-/tmp}/grit_svc.XXXXXX")
SOCK="$SOCK_DIR/svc.sock"
STORE="$WORKDIR/store.jsonl"

# The golden-pinned workload scale: small and fast.
export GRIT_FOOTPRINT_DIVISOR=128
export GRIT_INTENSITY=0.2

SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null
    rm -rf "$SOCK_DIR"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    for log in "$WORKDIR"/serve*.log; do
        [ -f "$log" ] && { echo "--- $log ---" >&2; cat "$log" >&2; }
    done
    exit 1
}

wait_ready() {
    for _ in $(seq 1 100); do
        "$SUBMIT" --socket "$SOCK" --ping >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    fail "daemon on $SOCK never became reachable"
}

counter() {  # counter FILE NAME -> value
    awk -v key="service.$2" '$1 == key { print $2 }' "$1"
}

# ---- 1. cold daemon, two concurrent identical submissions ------------

"$SERVE" --socket "$SOCK" --store "$STORE" --workers 2 \
    --json "$WORKDIR/serve1.json" 2>"$WORKDIR/serve1.log" &
SERVE_PID=$!
wait_ready

"$SUBMIT" --socket "$SOCK" --client alice BFS on-touch \
    --json "$WORKDIR/run_a.json" >"$WORKDIR/a.out" 2>/dev/null &
A=$!
"$SUBMIT" --socket "$SOCK" --client bob BFS on-touch \
    --json "$WORKDIR/run_b.json" >"$WORKDIR/b.out" 2>/dev/null &
B=$!
wait "$A" || fail "client alice exited non-zero"
wait "$B" || fail "client bob exited non-zero"

cmp -s "$WORKDIR/run_a.json" "$WORKDIR/run_b.json" ||
    fail "concurrent identical submissions produced different documents"

"$SUBMIT" --socket "$SOCK" --stats >"$WORKDIR/stats1.out" ||
    fail "stats request refused"
[ "$(counter "$WORKDIR/stats1.out" requests)" = 2 ] ||
    fail "expected 2 run requests, got: $(cat "$WORKDIR/stats1.out")"
[ "$(counter "$WORKDIR/stats1.out" executed)" = 1 ] ||
    fail "identical cells executed more than once: $(cat "$WORKDIR/stats1.out")"
[ "$(counter "$WORKDIR/stats1.out" store_entries)" = 1 ] ||
    fail "expected 1 stored result: $(cat "$WORKDIR/stats1.out")"
SHARED=$(( $(counter "$WORKDIR/stats1.out" hits) \
         + $(counter "$WORKDIR/stats1.out" deduped) ))
[ "$SHARED" = 1 ] ||
    fail "second request neither deduped nor store-served: $(cat "$WORKDIR/stats1.out")"

# ---- 2. kill -9, restart, warm cache ---------------------------------

kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null
SERVE_PID=""

"$SERVE" --socket "$SOCK" --store "$STORE" --workers 2 \
    --json "$WORKDIR/serve2.json" 2>"$WORKDIR/serve2.log" &
SERVE_PID=$!
wait_ready

"$SUBMIT" --socket "$SOCK" --ping >"$WORKDIR/ping2.out" ||
    fail "ping refused"
grep -q '^version grit_serve/' "$WORKDIR/ping2.out" ||
    fail "ping carries no server version: $(cat "$WORKDIR/ping2.out")"
grep -q '^draining 0$' "$WORKDIR/ping2.out" ||
    fail "live daemon claims to be draining: $(cat "$WORKDIR/ping2.out")"

"$SUBMIT" --socket "$SOCK" --client carol BFS on-touch \
    --json "$WORKDIR/run_c.json" >"$WORKDIR/c.out" ||
    fail "post-restart submission failed"
grep -q '^cached 1$' "$WORKDIR/c.out" ||
    fail "restarted daemon did not serve the stored result: $(cat "$WORKDIR/c.out")"
grep -q '^persisted 1$' "$WORKDIR/c.out" ||
    fail "store hit not reported as persisted: $(cat "$WORKDIR/c.out")"
cmp -s "$WORKDIR/run_a.json" "$WORKDIR/run_c.json" ||
    fail "cache hit after kill -9 is not byte-identical"

"$SUBMIT" --socket "$SOCK" --stats >"$WORKDIR/stats2.out" ||
    fail "post-restart stats request refused"
[ "$(counter "$WORKDIR/stats2.out" executed)" = 0 ] ||
    fail "restarted daemon re-executed a stored cell: $(cat "$WORKDIR/stats2.out")"
[ "$(counter "$WORKDIR/stats2.out" hits)" = 1 ] ||
    fail "expected 1 store hit after restart: $(cat "$WORKDIR/stats2.out")"
[ "$(counter "$WORKDIR/stats2.out" store_scanned)" = 1 ] ||
    fail "startup scrub scanned wrong record count: $(cat "$WORKDIR/stats2.out")"
[ "$(counter "$WORKDIR/stats2.out" store_valid)" = 1 ] ||
    fail "startup scrub validated wrong record count: $(cat "$WORKDIR/stats2.out")"
[ "$(counter "$WORKDIR/stats2.out" store_quarantined)" = 0 ] ||
    fail "clean store reported quarantined records: $(cat "$WORKDIR/stats2.out")"

# ---- 3. graceful drain -----------------------------------------------

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
DRAIN_EXIT=$?
SERVE_PID=""
[ "$DRAIN_EXIT" = 0 ] || fail "SIGTERM drain exited $DRAIN_EXIT, want 0"
[ -s "$WORKDIR/serve2.json" ] ||
    fail "drained daemon wrote no service-counters document"
# The drain document is the envelope, an empty "runs" array and the
# "service" object, whose keys come in the order `grit_submit --stats`
# prints them (both walk kServiceCounterFields).
python3 - "$WORKDIR/serve2.json" "$WORKDIR/stats2.out" <<'EOF' ||
import json, sys
doc = json.load(open(sys.argv[1]))
stats = [line.split()[0].removeprefix("service.")
         for line in open(sys.argv[2])]
top = ["schema", "version", "generator", "title", "params", "runs",
       "service"]
if list(doc) != top:
    sys.exit(f"top-level keys {list(doc)}, want {top}")
if doc["runs"] != []:
    sys.exit(f"runs is {doc['runs']}, want []")
if list(doc["service"]) != stats:
    sys.exit(f"service keys {list(doc['service'])}, want {stats}")
EOF
    fail "drain document layout changed"

# ---- 4. schema validation --------------------------------------------

python3 "$CHECKER" "$WORKDIR/run_a.json" "$WORKDIR/run_c.json" \
    "$WORKDIR/serve2.json" || fail "schema validation failed"

echo "service_smoke: OK"
exit 0
