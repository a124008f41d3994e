#!/usr/bin/env sh
# fleet_smoke.sh — multi-process failover check for the dominolb fleet
# tier.
#
# Boots three dominod backends plus a dominolb in front of them, and a
# separate clean single-node dominod as the reference, all pinned to
# the same -fixed-clock. The balancer steers every upload and report
# read to the session's owner with a 307, which curl follows with -L and
# tracegen's client as any net/http client does. Then:
#   - uploads four sessions concurrently through the balancer, and
#     checks that a chunk through it is a 307 to its owner
#   - kill -STOPs n1, the backend listed first, and scrapes the
#     balancer's /metrics under its 1 s -scrape-timeout: n2's and n3's
#     answers, sent while the scrape waited on n1, must be merged, and
#     the same scrape must count n1's scrape error; then kill -CONTs n1
#     and waits for the balancer to see the whole fleet up
#   - kill -9s the backend that owns a throttled in-flight upload and
#     redelivers the session through the balancer (the client's failed
#     upload and its watermark probe through the balancer mark the node
#     down, and the retry is re-pinned onto a survivor)
#   - SIGTERMs a second backend while another upload streams to it:
#     the in-flight session must complete on the draining node while
#     new sessions route elsewhere
#   - saturates the last survivor's ingest slots so a client upload is
#     shed with 429 + Retry-After and must retry its way in
#   - asserts every session's report served by the balancer is
#     byte-identical to the clean single-node run
#   - asserts the balancer's merged /sessions lists every uploaded
#     session, and as many rows as the surviving nodes hold together
#   - reads two fleet queries twice each through the balancer: the
#     second read of each is answered from what the balancer kept, on
#     the nodes' 304s, with the same bytes
#   - lints the balancer's federated /metrics and asserts the failover,
#     backend-health and fan-out not-modified series moved, and that the
#     balancer dialed at most four connections per backend: it keeps its
#     connections, so one dial per request fails here
# Artifacts (daemon logs, the federated scrape, /sessions, reports) land in
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
    -health-interval 200ms -health-fails 3 -scrape-timeout 1s \
    -log-format json -v \
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

echo "== a chunk through the balancer is a 307 to its owner"
S1_ADDR="$(owner_of s1)"
STEER="$(curl -s -o /dev/null -w '%{http_code} %{redirect_url}' \
    -H 'Content-Type: application/jsonl' -H 'X-Domino-Seq: 0' \
    --data-binary '{}' "http://$LB_ADDR/ingest?session=s1")"
[ "$STEER" = "307 http://$S1_ADDR/ingest?session=s1" ] || {
    echo "chunk through the balancer answered '$STEER', want a 307 to $S1_ADDR"
    exit 1; }

echo "== a scrape keeps the answers behind a stopped backend"
kill -STOP "$PID_N1"
curl -fsS --max-time 10 "http://$LB_ADDR/metrics" >"$OUT_DIR/scrape-n1-stopped.txt" || {
    kill -CONT "$PID_N1"; echo "the scrape with n1 stopped failed"; exit 1; }
kill -CONT "$PID_N1"
for n in n2 n3; do
    grep -q "dominod_node_info{node=\"$n\"} 1" "$OUT_DIR/scrape-n1-stopped.txt" || {
        echo "$n's answer is missing from the scrape behind the stopped n1"; exit 1; }
done
grep -q "dominolb_backend_scrape_errors_total{backend=\"http://$N1_ADDR\"} [1-9]" \
    "$OUT_DIR/scrape-n1-stopped.txt" || {
    echo "the scrape with n1 stopped counted no scrape error for n1"; exit 1; }
for _ in $(seq 1 50); do
    curl -fsS "http://$LB_ADDR/healthz" | grep -q '"status": *"ok"' && break
    sleep 0.1
done
curl -fsS "http://$LB_ADDR/healthz" | grep -q '"status": *"ok"' || {
    echo "the balancer does not see n1 up again after kill -CONT"; exit 1; }

echo "== kill -9 the backend owning a throttled in-flight upload"
"$BIN_DIR/tracegen" -cell tmobile-fdd -seed 21 -duration 10 \
    -o "$WORK/doomed.jsonl" 2>/dev/null
set +e
curl -fsSL -X POST -H 'Content-Type: application/jsonl' --limit-rate 100K \
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
curl -fsSL -X POST -H 'Content-Type: application/jsonl' --limit-rate 500K \
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
# uploads occupy both, so the third, steered there too, draws 429 +
# Retry-After from the node and the client's shed-retry counter must
# move.
for h in hog1 hog2; do
    "$BIN_DIR/tracegen" -cell amarisoft -seed 24 -duration 8 \
        -o "$WORK/$h.jsonl" 2>/dev/null
    curl -fsSL -X POST -H 'Content-Type: application/jsonl' --limit-rate 500K \
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
    code="$(curl -sL -o "$WORK/$s.fleet.json" -w '%{http_code}' \
        "http://$LB_ADDR/report/$s")"
    if [ "$code" != "200" ]; then
        # Lost with a dead node: the recovery contract is client
        # redelivery through the balancer, which re-pins the session.
        echo "   report $s lost with its node ($code), redelivering"
        # shellcheck disable=SC2046
        upload "http://$LB_ADDR" "$s" $(spec_of "$s")
        curl -fsSL "http://$LB_ADDR/report/$s" >"$WORK/$s.fleet.json"
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

echo "== checking the balancer's merged /sessions against the survivors"
curl -fsS "http://$LB_ADDR/sessions" >"$OUT_DIR/sessions.json"
for s in s1 s2 s3 s4 s5 doomed drained shed1 hog1 hog2; do
    grep -q "\"session\": \"$s\"" "$OUT_DIR/sessions.json" || {
        echo "session $s is missing from the balancer's /sessions"; exit 1; }
done
NODE_ROWS=0
for a in "$N1_ADDR" "$N2_ADDR" "$N3_ADDR"; do
    if curl -fsS "http://$a/sessions" >"$WORK/sessions.node.json" 2>/dev/null; then
        NODE_ROWS=$((NODE_ROWS + $(grep -c '"session":' "$WORK/sessions.node.json" || true)))
    fi
done
LB_ROWS="$(grep -c '"session":' "$OUT_DIR/sessions.json" || true)"
[ "$LB_ROWS" -eq "$NODE_ROWS" ] || {
    echo "the balancer's /sessions has $LB_ROWS rows, the surviving nodes $NODE_ROWS"
    exit 1; }

echo "== repeating fleet reads: conditional GETs to the nodes, the same bytes"
for q in 'agg=top_chains' 'limit=5'; do
    curl -fsS "http://$LB_ADDR/query?$q" >"$WORK/read1.json"
    curl -fsS "http://$LB_ADDR/query?$q" >"$WORK/read2.json"
    cmp "$WORK/read1.json" "$WORK/read2.json" || {
        echo "a repeated /query?$q answered other bytes"; exit 1; }
    cp "$WORK/read2.json" "$OUT_DIR/query-$q.json"
done

echo "== linting the federated /metrics exposition"
curl -fsS "http://$LB_ADDR/metrics" >"$OUT_DIR/fleet-metrics.txt"
"$BIN_DIR/promlint" "$OUT_DIR/fleet-metrics.txt"
grep -q 'dominolb_failovers_total [1-9]' "$OUT_DIR/fleet-metrics.txt" || {
    echo "no failovers recorded despite a kill -9"; exit 1; }
grep -q "dominolb_backend_up{backend=\"http://$VICTIM_ADDR\"} 0" \
    "$OUT_DIR/fleet-metrics.txt" || {
    echo "killed backend still reported up"; exit 1; }
grep -q 'dominolb_fanout_not_modified_total [1-9]' "$OUT_DIR/fleet-metrics.txt" || {
    echo "no fan-out part was reused on a node's 304 despite repeated reads"; exit 1; }
DIALS="$(sed -n 's/^dominolb_backend_dials_total \([0-9]*\)$/\1/p' "$OUT_DIR/fleet-metrics.txt")"
[ -n "$DIALS" ] && [ "$DIALS" -le $((4 * 3)) ] || {
    echo "the balancer dialed its 3 backends '$DIALS' times, want at most 12"; exit 1; }
grep -q 'dominod_node_info{node="n[0-9]"} 1' "$OUT_DIR/fleet-metrics.txt" || {
    echo "surviving backends' node identity missing from federation"; exit 1; }
grep -q '[1-9][0-9]* shed-retries' "$TRACEGEN_LOG" || {
    echo "client never reported a shed-retry despite the survivor's 429s"; exit 1; }
# Every session has its report, so neither tier's session table may
# still hold one as live.
for gauge in dominolb_sessions_active dominod_sessions_active; do
    grep -qx "$gauge 0" "$OUT_DIR/fleet-metrics.txt" || {
        echo "session table leak: $(grep "^$gauge " "$OUT_DIR/fleet-metrics.txt")"
        exit 1; }
done

echo "fleet smoke OK: failover and drain are byte-identical to a clean run"
