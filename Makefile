# Local entry points mirroring .github/workflows/ci.yml — `make ci`
# runs exactly what CI runs.

GO ?= go

.PHONY: build vet fmt fmt-check test fuzz-smoke bench bench-pair micro-pair obs-smoke chaos-smoke fleet-smoke examples-check bench-check loc loc-check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt rewrites files in place; fmt-check (used by ci) only complains.
fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# -race over everything: the node, the balancer and the ingest protocol
# (internal/node, internal/balancer, internal/ingest) run their real
# in-process fleets under the detector here.
test:
	$(GO) test -race ./...

# Fuzz smoke: `go test` alone only replays each fuzz target's seeds.
# This runs every fuzz target outside bench/ (TestFuzzTargetsAreSmoked in
# tree_test.go fails on one left out): every parser that faces the
# network or the disk (both trace codecs, JSONL by record and by block,
# the ingest protocol headers, the read grammar both tiers parse /query
# and /incidents/similar with, the balancer's /metrics scrape parser and
# its fan-out answer scanner, the RCA-store checkpoint loader)
# and the block analysis path behind them, and the RCA store's in-block
# row selection against a plain loop, under the fuzzer for a few seconds
# each — `-fuzz` takes one target and one package per run.
# FuzzFastNumber holds the JSONL number parsers to encoding/json.
# FuzzJSONLFraming holds the JSONL reader's whole-line tokens to
# bufio.ScanLines' framing.
# FuzzRollingMatchesOracle holds the window evaluator to a full recompute.
# FuzzReportEncoder holds the node's report and /sessions encoders to
# encoding/json.
# A failing input is written under the package's testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryStreamReader$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryRoundTrip$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzCodecDifferential$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzJSONLBlock$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzFastNumber$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzJSONLFraming$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzPushBlock$$' -fuzztime 5s ./internal/stream
	$(GO) test -run '^$$' -fuzz '^FuzzRollingMatchesOracle$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseText$$' -fuzztime 5s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 5s ./internal/rcastore
	$(GO) test -run '^$$' -fuzz '^FuzzStoreSelect$$' -fuzztime 5s ./internal/rcastore
	$(GO) test -run '^$$' -fuzz '^FuzzParseRead$$' -fuzztime 5s ./internal/rcastore
	$(GO) test -run '^$$' -fuzz '^FuzzFanoutScan$$' -fuzztime 5s ./internal/balancer
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 5s ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzReportEncoder$$' -fuzztime 5s ./internal/node

# One iteration of every benchmark, so none can rot unseen. It compares
# nothing: the allocation contracts the benchmarks used to carry are
# tier-1 tests beside the code (`go test ./...`), and speed is decided by
# bench-pair on one host.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The comparison a shared host can decide: N alternating runs of the
# repo benchmark (bench/fleetbench, as BENCHMARK.json runs it) on REF and
# on the working tree, printed as medians, quartiles, wins and a verdict
# per workload and metric — the block a CHANGES.md entry pastes. About
# half a minute per run: four workloads × ten pairs is some forty minutes.
#   make bench-pair REF=HEAD~1 WORKLOADS="bulk-binary fleet-live" N=10
bench-pair:
	@test -n "$(REF)" || { echo 'usage: make bench-pair REF=<commit> [WORKLOADS="bulk-binary ..."] [N=10]'; exit 2; }
	WORKLOADS="$(WORKLOADS)" N="$(N)" sh scripts/bench_pair.sh "$(REF)"

# bench-pair's layer-level companion: one package's Go benchmarks, REF's
# test binary and the working tree's each built once and run N times
# alternately, printed as medians, quartiles and wins per benchmark and
# metric. REF runs the working tree's test files of PKG. Not part of ci.
#   make micro-pair REF=HEAD~1 PKG=./internal/trace BENCH=CodecDecodeScenario N=10
micro-pair:
	@test -n "$(REF)" -a -n "$(PKG)" -a -n "$(BENCH)" || { echo 'usage: make micro-pair REF=<commit> PKG=<./pkg> BENCH=<regexp> [N=10] [BENCHTIME=1s]'; exit 2; }
	N="$(N)" BENCHTIME="$(BENCHTIME)" sh scripts/micro_pair.sh "$(REF)" "$(PKG)" "$(BENCH)"

# Observability smoke: boot dominod with the pprof listener, ingest a
# generated session, validate /metrics through cmd/promlint, dump the
# flight recording, and capture a CPU profile. Artifacts land in
# obs-smoke/ (CI uploads them).
obs-smoke:
	sh scripts/obs_smoke.sh

# Crash-recovery smoke: ingest a fleet workload, kill -9 dominod
# mid-upload, restart on the surviving write-ahead journal, and assert
# the final checkpoint is byte-identical to a graceful run's. Artifacts
# (daemon logs, both checkpoints, the post-crash journal) land in
# chaos-smoke/ (CI uploads them).
chaos-smoke:
	sh scripts/chaos_smoke.sh

# Fleet failover smoke: three dominod backends behind dominolb plus a
# clean reference node; kill -9 one backend mid-upload, SIGTERM-drain
# another under an in-flight stream, saturate the survivor's ingest
# slots, and assert every balancer-served report is byte-identical to
# the clean run and the federated /metrics lints. Artifacts land in
# fleet-smoke/ (CI uploads them).
fleet-smoke:
	sh scripts/fleet_smoke.sh

# Documentation gates are tests in the root package (tree_test.go:
# package comments, façade doc comments, relative links in the top-level
# docs), so `test` above is where doc drift fails.

# Build, vet and run the documented examples by name: a façade change
# that breaks one, or leaves examples/streaming without its live
# diagnosis, then fails a step that says "examples", not a wildcard.
examples-check:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...
	@set -e; for p in $$($(GO) list ./examples/...); do \
		echo "$(GO) run $$p"; out=$$($(GO) run $$p); \
		case $$p in */streaming) echo "$$out" | grep -q 'live diagnosis' || \
			{ echo "$$p printed no live diagnosis line" >&2; exit 1; };; esac; \
	done

# bench/ is its own module, so `./...` above never compiles it, yet it
# imports internal/ packages and so pins their signatures. Vet it and
# run its unit tests (seconds; they start no child processes).
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The "least code" trend line: non-test and test Go lines per package
# outside bench/, written to the committed LOC.txt so every PR's effect
# on code size is in its diff.
loc:
	sh scripts/loc.sh > LOC.txt
	@tail -1 LOC.txt

# What CI runs: the committed LOC.txt must be the one the tree produces.
loc-check: loc
	git diff --exit-code -- LOC.txt

ci: build vet fmt-check test fuzz-smoke bench obs-smoke chaos-smoke fleet-smoke examples-check bench-check loc-check
