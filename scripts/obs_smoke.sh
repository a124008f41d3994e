#!/usr/bin/env sh
# obs_smoke.sh — end-to-end check of dominod's observability surface.
#
# Builds dominod, tracegen, and promlint; boots the service with the
# pprof debug listener enabled; ingests one generated session per wire
# format — JSONL and the compact binary columnar trace, each under its
# declared Content-Type; then asserts:
#   - /metrics passes the Prometheus text-exposition linter (promlint)
#   - /healthz reports ok with build identity
#   - both sessions completed and the per-format ingest counters moved
#   - the binary session's report matches its JSONL twin
#   - /debug/flightrec/{session} serves the pipeline flight recording:
#     consecutive seq values from its first line, with ingest_chunk,
#     window_evaluated and report_stored events
#   - the pprof endpoint yields a CPU profile
# Artifacts (scrape, flight recording, profile) land in OUT_DIR
# (default ./obs-smoke) so CI can upload them. Exit 0 only if every
# probe succeeds.
set -eu

OUT_DIR="${OUT_DIR:-obs-smoke}"
ADDR="${ADDR:-127.0.0.1:18077}"
DEBUG_ADDR="${DEBUG_ADDR:-127.0.0.1:18078}"
PROFILE_SECONDS="${PROFILE_SECONDS:-2}"

mkdir -p "$OUT_DIR"
BIN_DIR="$(mktemp -d)"
DOMINOD_PID=""
cleanup() {
    [ -n "$DOMINOD_PID" ] && kill "$DOMINOD_PID" 2>/dev/null || true
    # A SIGTERMed dominod is still writing its final checkpoint.
    [ -n "$DOMINOD_PID" ] && wait "$DOMINOD_PID" 2>/dev/null || true
    rm -rf "$BIN_DIR"
}
trap cleanup EXIT INT TERM

echo "== building dominod, tracegen, promlint"
go build -o "$BIN_DIR" ./cmd/dominod ./cmd/tracegen ./cmd/promlint

echo "== starting dominod on $ADDR (pprof on $DEBUG_ADDR)"
"$BIN_DIR/dominod" -addr "$ADDR" -debug-addr "$DEBUG_ADDR" -log-format json -v \
    >"$OUT_DIR/dominod.log" 2>&1 &
DOMINOD_PID=$!

for _ in $(seq 1 50); do
    if curl -fsS "http://$ADDR/healthz" >"$OUT_DIR/healthz.json" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
grep -q '"status": "ok"' "$OUT_DIR/healthz.json" || {
    echo "dominod never became healthy"; cat "$OUT_DIR/dominod.log"; exit 1; }
echo "   healthz: $(cat "$OUT_DIR/healthz.json" | tr -d '\n ')"

echo "== ingesting one generated session per wire format"
"$BIN_DIR/tracegen" -cell amarisoft -duration 20 -seed 7 -o "$BIN_DIR/call.jsonl"
"$BIN_DIR/tracegen" -format binary -cell amarisoft -duration 20 -seed 7 -o "$BIN_DIR/call.dmnt"
curl -fsS -X POST -H 'Content-Type: application/jsonl' \
    --data-binary @"$BIN_DIR/call.jsonl" \
    "http://$ADDR/ingest?session=smoke" >"$OUT_DIR/report.json"
curl -fsS -X POST -H 'Content-Type: application/x-domino-trace' \
    --data-binary @"$BIN_DIR/call.dmnt" \
    "http://$ADDR/ingest?session=smoke-binary" >"$OUT_DIR/report-binary.json"

# The binary upload must diagnose exactly like its JSONL twin — the
# reports differ only in the session field.
sed 's/"session": "[^"]*"/"session": ""/' "$OUT_DIR/report.json" >"$BIN_DIR/a.json"
sed 's/"session": "[^"]*"/"session": ""/' "$OUT_DIR/report-binary.json" >"$BIN_DIR/b.json"
cmp -s "$BIN_DIR/a.json" "$BIN_DIR/b.json" || {
    echo "binary-ingested report diverges from JSONL twin"
    diff "$BIN_DIR/a.json" "$BIN_DIR/b.json" | head -20; exit 1; }

echo "== validating /metrics exposition"
curl -fsS "http://$ADDR/metrics" >"$OUT_DIR/metrics.txt"
"$BIN_DIR/promlint" "$OUT_DIR/metrics.txt"
grep -q 'dominod_sessions_done_total 2' "$OUT_DIR/metrics.txt" || {
    echo "metrics missing completed sessions"; exit 1; }
grep -q 'dominod_ingest_records_total{format="jsonl"} [1-9]' "$OUT_DIR/metrics.txt" || {
    echo "metrics missing jsonl ingest records"; exit 1; }
grep -q 'dominod_ingest_records_total{format="binary"} [1-9]' "$OUT_DIR/metrics.txt" || {
    echo "metrics missing binary ingest records"; exit 1; }
grep -q 'domino_build_info{' "$OUT_DIR/metrics.txt" || {
    echo "metrics missing build info"; exit 1; }

echo "== dumping flight recording"
curl -fsS "http://$ADDR/debug/flightrec/smoke" >"$OUT_DIR/flightrec.jsonl"
# The dump is the whole retained recording: its seq values run
# consecutively from its first line, none skipped.
awk '{ if (!match($0, /^\{"seq":[0-9]+,/)) { print "line " NR " has no seq: " $0; exit 1 }
       seq = substr($0, 8, RLENGTH - 8) + 0
       if (NR == 1) first = seq
       else if (seq != first + NR - 1) { print "line " NR " has seq " seq ", want " first + NR - 1; exit 1 } }
     END { if (NR == 0) { print "empty flight recording"; exit 1 } }' "$OUT_DIR/flightrec.jsonl" || {
    echo "flight recording is not consecutive"; exit 1; }
for kind in ingest_chunk window_evaluated report_stored; do
    grep -q "\"kind\":\"$kind\"" "$OUT_DIR/flightrec.jsonl" || {
        echo "flight recording missing $kind event"; exit 1; }
done
echo "   $(wc -l < "$OUT_DIR/flightrec.jsonl") events recorded"

echo "== capturing ${PROFILE_SECONDS}s CPU profile from pprof"
curl -fsS "http://$DEBUG_ADDR/debug/pprof/profile?seconds=$PROFILE_SECONDS" \
    >"$OUT_DIR/cpu.pprof"
[ -s "$OUT_DIR/cpu.pprof" ] || { echo "empty CPU profile"; exit 1; }

echo "== obs smoke OK (artifacts in $OUT_DIR)"
