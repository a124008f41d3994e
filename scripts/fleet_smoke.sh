#!/usr/bin/env sh
# fleet_smoke.sh — multi-process failover check for the dominolb fleet
# tier.
#
# Boots three dominod backends plus a dominolb in front of them, and a
# separate clean single-node dominod as the reference, all pinned to
# the same -fixed-clock. Then:
#   - uploads four sessions concurrently through the balancer
#   - kill -9s the backend that owns a throttled in-flight upload and
#     redelivers the session through the balancer (the client's
#     retryable-503 path re-pins it onto a survivor)
#   - SIGTERMs a second backend while another upload streams to it:
#     the in-flight session must complete on the draining node while
#     new sessions route elsewhere
#   - saturates the last survivor's ingest slots so a client upload is
#     shed with 429 + Retry-After and must retry its way in
#   - asserts every session's report served by the balancer is
#     byte-identical to the clean single-node run
#   - lints the balancer's federated /metrics and asserts the failover
#     and backend-health series moved
# Artifacts (daemon logs, the federated scrape, reports) land in
# OUT_DIR (default ./fleet-smoke) so CI can upload them.
set -eu

OUT_DIR="${OUT_DIR:-fleet-smoke}"
LB_ADDR="${LB_ADDR:-127.0.0.1:18270}"
CLEAN_ADDR="${CLEAN_ADDR:-127.0.0.1:18271}"
N1_ADDR="${N1_ADDR:-127.0.0.1:18272}"
N2_ADDR="${N2_ADDR:-127.0.0.1:18273}"
N3_ADDR="${N3_ADDR:-127.0.0.1:18274}"

mkdir -p "$OUT_DIR"
BIN_DIR="$(mktemp -d)"
WORK="$(mktemp -d)"
PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    # A SIGTERMed dominod is still writing its final checkpoint into WORK.
    for p in $PIDS; do wait "$p" 2>/dev/null || true; done
    rm -rf "$BIN_DIR" "$WORK"
}
trap cleanup EXIT INT TERM

. "$(dirname "$0")/smoke_lib.sh"
TRACEGEN_LOG="$OUT_DIR/tracegen.log"
: >"$TRACEGEN_LOG"

echo "== building dominod, dominolb, tracegen, promlint"
smoke_build ./cmd/dominod ./cmd/dominolb ./cmd/tracegen ./cmd/promlint

echo "== starting clean reference node and a 3-node fleet behind dominolb"
start_dominod "$CLEAN_ADDR" "$WORK/clean.spill" "$OUT_DIR/clean.log"
PIDS="$PIDS $STARTED_PID"
# Two ingest slots per node so the overload phase below can saturate
# the last survivor deterministically.
start_dominod "$N1_ADDR" "$WORK/n1.spill" "$OUT_DIR/n1.log" \
    -node-id n1 -drain 30s -max-streams 2 -admit-wait 100ms
PID_N1=$STARTED_PID; PIDS="$PIDS $STARTED_PID"
start_dominod "$N2_ADDR" "$WORK/n2.spill" "$OUT_DIR/n2.log" \
    -node-id n2 -drain 30s -max-streams 2 -admit-wait 100ms
PID_N2=$STARTED_PID; PIDS="$PIDS $STARTED_PID"
start_dominod "$N3_ADDR" "$WORK/n3.spill" "$OUT_DIR/n3.log" \
    -node-id n3 -drain 30s -max-streams 2 -admit-wait 100ms
PID_N3=$STARTED_PID; PIDS="$PIDS $STARTED_PID"

"$BIN_DIR/dominolb" -addr "$LB_ADDR" \
    -backend "http://$N1_ADDR,http://$N2_ADDR,http://$N3_ADDR" \
    -health-interval 200ms -health-fails 3 -log-format json -v \
    >"$OUT_DIR/dominolb.log" 2>&1 &
PIDS="$PIDS $!"
wait_healthy "$LB_ADDR" "$OUT_DIR/dominolb.log"

owner_of() { # $1 = session; echoes the owning backend's host:port
    for a in "$N1_ADDR" "$N2_ADDR" "$N3_ADDR"; do
        if curl -fsS "http://$a/sessions/$1/watermark" >/dev/null 2>&1; then
            echo "$a"; return 0
        fi
    done
    echo "no backend owns session $1" >&2
    return 1
}

pid_of() { # $1 = backend host:port
    case "$1" in
    "$N1_ADDR") echo "$PID_N1" ;;
    "$N2_ADDR") echo "$PID_N2" ;;
    "$N3_ADDR") echo "$PID_N3" ;;
    esac
}

# session:cell:seed:duration — the whole workload, used for upload and
# for the deterministic redelivery of sessions lost with a dead node.
WORKLOAD="s1:amarisoft:11:10 s2:mosolabs:12:10 s3:tmobile-tdd:13:10 \
s4:tmobile-fdd:14:10 doomed:tmobile-fdd:21:10 s5:mosolabs:15:10 \
drained:amarisoft:22:8 shed1:amarisoft:23:5"
spec_of() { # $1 = session; echoes "cell seed duration"
    for spec in $WORKLOAD; do
        if [ "${spec%%:*}" = "$1" ]; then
            echo "$spec" | tr ':' ' ' | cut -d' ' -f2-4; return 0
        fi
    done
    return 1
}

echo "== uploading four sessions concurrently through the balancer"
UP_PIDS=""
for s in s1 s2 s3 s4; do
    # shellcheck disable=SC2046
    upload "http://$CLEAN_ADDR" "$s" $(spec_of "$s")
    upload "http://$LB_ADDR" "$s" $(spec_of "$s") &
    UP_PIDS="$UP_PIDS $!"
done
for p in $UP_PIDS; do wait "$p"; done

echo "== kill -9 the backend owning a throttled in-flight upload"
"$BIN_DIR/tracegen" -cell tmobile-fdd -seed 21 -duration 10 \
    -o "$WORK/doomed.jsonl" 2>/dev/null
set +e
curl -fsS -X POST -H 'Content-Type: application/jsonl' --limit-rate 100K \
    --data-binary @"$WORK/doomed.jsonl" "http://$LB_ADDR/ingest?session=doomed" \
    >/dev/null 2>&1 &
CURL_PID=$!
sleep 0.5
VICTIM_ADDR="$(owner_of doomed)"
[ -n "$VICTIM_ADDR" ] || exit 1
kill -9 "$(pid_of "$VICTIM_ADDR")"
wait "$CURL_PID"
CURL_RC=$?
set -e
[ "$CURL_RC" -ne 0 ] || {
    echo "doomed upload finished before the kill; raise -duration"; exit 1; }
echo "   killed $VICTIM_ADDR, redelivering doomed through the balancer"
# shellcheck disable=SC2046
upload "http://$LB_ADDR" doomed $(spec_of doomed)
# shellcheck disable=SC2046
upload "http://$CLEAN_ADDR" doomed $(spec_of doomed)

echo "== SIGTERM a second backend while an upload streams to it"
"$BIN_DIR/tracegen" -cell amarisoft -seed 22 -duration 8 \
    -o "$WORK/drained.jsonl" 2>/dev/null
curl -fsS -X POST -H 'Content-Type: application/jsonl' \
    --data-binary @"$WORK/drained.jsonl" \
    "http://$CLEAN_ADDR/ingest?session=drained" >"$WORK/drained.ref.json"
curl -fsS -X POST -H 'Content-Type: application/jsonl' --limit-rate 500K \
    --data-binary @"$WORK/drained.jsonl" \
    "http://$LB_ADDR/ingest?session=drained" >"$OUT_DIR/report-drained.json" &
CURL_PID=$!
sleep 0.5
DRAIN_ADDR="$(owner_of drained)"
kill -TERM "$(pid_of "$DRAIN_ADDR")"
echo "   draining $DRAIN_ADDR; new sessions must route elsewhere"
sleep 0.5 # let the prober observe the drain
# shellcheck disable=SC2046
upload "http://$CLEAN_ADDR" s5 $(spec_of s5)
upload "http://$LB_ADDR" s5 $(spec_of s5)
S5_ADDR="$(owner_of s5)"
[ "$S5_ADDR" != "$DRAIN_ADDR" ] || {
    echo "new session s5 landed on the draining node"; exit 1; }
wait "$CURL_PID" || {
    echo "in-flight upload did not survive the drain"; exit 1; }
cmp "$OUT_DIR/report-drained.json" "$WORK/drained.ref.json" || {
    echo "drained-through report diverges from the clean run"; exit 1; }

echo "== saturating the last survivor so the client's shed path fires"
# One node was killed and one drained away: every new session now pins
# to the lone survivor, which has two ingest slots. Two throttled
# uploads occupy both, so the third draws 429 + Retry-After through
# the balancer and the client's shed-retry counter must move.
for h in hog1 hog2; do
    "$BIN_DIR/tracegen" -cell amarisoft -seed 24 -duration 8 \
        -o "$WORK/$h.jsonl" 2>/dev/null
    curl -fsS -X POST -H 'Content-Type: application/jsonl' --limit-rate 500K \
        --data-binary @"$WORK/$h.jsonl" "http://$LB_ADDR/ingest?session=$h" \
        >/dev/null &
    HOG_PIDS="${HOG_PIDS:-} $!"
    sleep 0.2
done
# shellcheck disable=SC2046
upload "http://$LB_ADDR" shed1 $(spec_of shed1)
# shellcheck disable=SC2046
upload "http://$CLEAN_ADDR" shed1 $(spec_of shed1)
for p in $HOG_PIDS; do
    wait "$p" || { echo "hog upload failed"; exit 1; }
done

echo "== verifying every report against the clean single-node run"
for s in s1 s2 s3 s4 s5 doomed drained shed1; do
    code="$(curl -s -o "$WORK/$s.fleet.json" -w '%{http_code}' \
        "http://$LB_ADDR/report/$s")"
    if [ "$code" != "200" ]; then
        # Lost with a dead node: the recovery contract is client
        # redelivery through the balancer, which re-pins the session.
        echo "   report $s lost with its node ($code), redelivering"
        # shellcheck disable=SC2046
        upload "http://$LB_ADDR" "$s" $(spec_of "$s")
        curl -fsS "http://$LB_ADDR/report/$s" >"$WORK/$s.fleet.json"
    fi
    if [ "$s" = "drained" ]; then
        cp "$WORK/drained.ref.json" "$WORK/$s.clean.json"
    else
        curl -fsS "http://$CLEAN_ADDR/report/$s" >"$WORK/$s.clean.json"
    fi
    cmp "$WORK/$s.fleet.json" "$WORK/$s.clean.json" || {
        echo "report $s served by the fleet diverges from the clean run"
        exit 1; }
    cp "$WORK/$s.fleet.json" "$OUT_DIR/report-$s.json"
done

echo "== linting the federated /metrics exposition"
curl -fsS "http://$LB_ADDR/metrics" >"$OUT_DIR/fleet-metrics.txt"
"$BIN_DIR/promlint" "$OUT_DIR/fleet-metrics.txt"
grep -q 'dominolb_failovers_total [1-9]' "$OUT_DIR/fleet-metrics.txt" || {
    echo "no failovers recorded despite a kill -9"; exit 1; }
grep -q "dominolb_backend_up{backend=\"http://$VICTIM_ADDR\"} 0" \
    "$OUT_DIR/fleet-metrics.txt" || {
    echo "killed backend still reported up"; exit 1; }
grep -q 'dominod_node_info{node="n[0-9]"} 1' "$OUT_DIR/fleet-metrics.txt" || {
    echo "surviving backends' node identity missing from federation"; exit 1; }
grep -q '[1-9][0-9]* shed-retries' "$TRACEGEN_LOG" || {
    echo "client never reported a shed-retry despite balancer 503s"; exit 1; }
# Every session has its report, so neither tier's session table may
# still hold one as live.
for gauge in dominolb_sessions_active dominod_sessions_active; do
    grep -qx "$gauge 0" "$OUT_DIR/fleet-metrics.txt" || {
        echo "session table leak: $(grep "^$gauge " "$OUT_DIR/fleet-metrics.txt")"
        exit 1; }
done

echo "fleet smoke OK: failover and drain are byte-identical to a clean run"
