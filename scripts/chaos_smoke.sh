#!/usr/bin/env sh
# chaos_smoke.sh — end-to-end crash-recovery check for dominod's
# durability layer.
#
# Two runs of the same fleet workload, pinned to the same -fixed-clock:
#   A (graceful): ingest four sessions, SIGTERM, final checkpoint.
#   B (crash):    ingest three sessions, then kill -9 mid-way through
#                 the fourth upload — no drain, no checkpoint, nothing
#                 but the write-ahead journal survives. Restart on the
#                 same journal, assert all three completed reports were
#                 replayed, then deliver the interrupted session again
#                 and shut down gracefully.
# The final checkpoints of both runs must be byte-identical: recovery
# plus re-delivery is indistinguishable from never having crashed.
# Run A's reads, saved before its shutdown, must also be byte-identical
# to rcaquery's answers over the checkpoint that shutdown writes: the
# offline CLI and the live node speak one read grammar.
# Artifacts (daemon logs, both checkpoints, the surviving journal)
# land in OUT_DIR (default ./chaos-smoke) so CI can upload them.
set -eu

OUT_DIR="${OUT_DIR:-chaos-smoke}"
ADDR="${ADDR:-127.0.0.1:18177}"

mkdir -p "$OUT_DIR"
BIN_DIR="$(mktemp -d)"
WORK="$(mktemp -d)"
DOMINOD_PID=""
cleanup() {
    [ -n "$DOMINOD_PID" ] && kill "$DOMINOD_PID" 2>/dev/null || true
    # A SIGTERMed dominod is still writing its final checkpoint.
    [ -n "$DOMINOD_PID" ] && wait "$DOMINOD_PID" 2>/dev/null || true
    rm -rf "$BIN_DIR" "$WORK"
}
trap cleanup EXIT INT TERM

. "$(dirname "$0")/smoke_lib.sh"

# READS are the reads compared between run A's node and rcaquery. No
# last=: the node's clock is -fixed-clock, rcaquery's the store's
# newest start.
READS="/query /query?agg=top_chains /query?agg=cause_rates /incidents/similar?session=s1"
read_file() { # $1 = read; prints a file name for its answer
    printf '%s' "$1" | tr -c 'A-Za-z0-9' '_'
}

echo "== building dominod, tracegen and rcaquery"
smoke_build ./cmd/dominod ./cmd/tracegen ./cmd/rcaquery

echo "== run A: four sessions, graceful shutdown"
start_dominod "$ADDR" "$WORK/a.spill" "$OUT_DIR/dominod-a.log"
DOMINOD_PID=$STARTED_PID
upload "http://$ADDR" s1 amarisoft 11 10
upload "http://$ADDR" s2 mosolabs 12 10
upload "http://$ADDR" s3 tmobile-tdd 13 10
upload "http://$ADDR" doomed tmobile-fdd 14 40
mkdir -p "$WORK/get" "$WORK/cli"
for read in $READS; do
    curl -fsS "http://$ADDR$read" >"$WORK/get/$(read_file "$read")"
done
kill -TERM "$DOMINOD_PID"
wait "$DOMINOD_PID" || true
DOMINOD_PID=""
[ -s "$WORK/a.spill" ] || { echo "run A left no checkpoint"; exit 1; }

echo "== comparing run A's reads with rcaquery over its checkpoint"
for read in $READS; do
    f="$(read_file "$read")"
    "$BIN_DIR/rcaquery" -store "$WORK/a.spill" "$read" >"$WORK/cli/$f"
    cmp "$WORK/get/$f" "$WORK/cli/$f" || {
        echo "rcaquery answers $read differently from GET"
        cp "$WORK/get/$f" "$OUT_DIR/get-$f.json"
        cp "$WORK/cli/$f" "$OUT_DIR/rcaquery-$f.json"
        exit 1; }
done

echo "== run B: three sessions, then kill -9 mid-upload"
start_dominod "$ADDR" "$WORK/b.spill" "$OUT_DIR/dominod-b.log"
DOMINOD_PID=$STARTED_PID
upload "http://$ADDR" s1 amarisoft 11 10
upload "http://$ADDR" s2 mosolabs 12 10
upload "http://$ADDR" s3 tmobile-tdd 13 10
# The fourth upload is throttled so the SIGKILL lands mid-stream.
"$BIN_DIR/tracegen" -cell tmobile-fdd -seed 14 -duration 40 -o "$WORK/doomed.jsonl" 2>/dev/null
set +e
curl -fsS -X POST -H 'Content-Type: application/jsonl' --limit-rate 100K \
    --data-binary @"$WORK/doomed.jsonl" "http://$ADDR/ingest?session=doomed" \
    >/dev/null 2>&1 &
CURL_PID=$!
sleep 0.5
kill -9 "$DOMINOD_PID"
wait "$DOMINOD_PID" 2>/dev/null
wait "$CURL_PID"
CURL_RC=$?
set -e
DOMINOD_PID=""
[ "$CURL_RC" -ne 0 ] || {
    echo "interrupted upload finished before the kill; raise -duration"; exit 1; }
[ -s "$WORK/b.spill.wal" ] || { echo "no journal survived the crash"; exit 1; }
cp "$WORK/b.spill.wal" "$OUT_DIR/journal-after-crash.wal"

echo "== restarting on the surviving journal"
start_dominod "$ADDR" "$WORK/b.spill" "$OUT_DIR/dominod-b.log"
DOMINOD_PID=$STARTED_PID
grep -q '"replayed":3' "$OUT_DIR/dominod-b.log" || {
    echo "restart did not replay the three journaled reports"
    grep '"RCA store recovered"' "$OUT_DIR/dominod-b.log" || true; exit 1; }
# The crashed process took the session registry with it: the
# interrupted session is unknown and is simply delivered again.
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/report/doomed")"
[ "$code" = "404" ] || { echo "interrupted session survived the crash ($code)"; exit 1; }
upload "http://$ADDR" doomed tmobile-fdd 14 40
kill -TERM "$DOMINOD_PID"
wait "$DOMINOD_PID" || true
DOMINOD_PID=""

echo "== comparing graceful checkpoint with post-crash checkpoint"
cp "$WORK/a.spill" "$OUT_DIR/graceful.spill"
cp "$WORK/b.spill" "$OUT_DIR/recovered.spill"
cmp "$WORK/a.spill" "$WORK/b.spill" || {
    echo "recovered store diverges from the graceful run"; exit 1; }
# A graceful shutdown folds the journal into the checkpoint and
# truncates it: an empty journal is the proof the fold happened.
[ ! -s "$WORK/b.spill.wal" ] || { echo "journal not truncated by final checkpoint"; exit 1; }

echo "chaos smoke OK: crash recovery is byte-identical to a graceful run, rcaquery to GET"
