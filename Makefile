GO ?= go

.PHONY: all build test vet race check bench bench-go bench-json bench-gen bench-refine bench-serve bench-stream bench-check fuzz-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Everything runs under the race detector in CI (the sim/model/obs
# packages hold the concurrency-sensitive state, but signal handling and
# trace sinks in cmd/ deserve it too).
race:
	$(GO) test -race ./...

check: build vet test race

# Short fuzzing pass over every parser-facing fuzz target (go's fuzzer
# accepts one -fuzz pattern per invocation, hence the separate runs).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/mrt -fuzz '^FuzzParsePeerIndexTable$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/mrt -fuzz '^FuzzParseRIB$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/mrt -fuzz '^FuzzParseBGP4MP$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/lg -fuzz '^FuzzLGParse$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/model -fuzz '^FuzzModelLoad$$' -fuzztime $(FUZZTIME) -run '^$$'

# Sequential-vs-parallel timings plus determinism checks; writes
# schema-versioned BENCH_parallel.json (evaluate/refine) and
# BENCH_gen.json (ground-truth generation) with host metadata and
# per-worker utilization, both checked in; regenerate after engine
# changes and keep baselines/ in step (see bench-check).
bench:
	$(GO) run ./cmd/parbench -out BENCH_parallel.json -gen-out BENCH_gen.json

bench-json: bench

# Go microbenchmarks (testing.B) at the repo root.
bench-go:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Fast smoke of the generation benchmark: one repetition, exits non-zero
# if any worker count produces a dataset that differs from sequential.
bench-gen:
	$(GO) run ./cmd/parbench -mode gen -reps 1 -gen-out BENCH_gen.json

# Fast worker-count identity smoke of refinement: one repetition per
# worker count, exits non-zero unless every count's model bytes, result
# counts and redacted trace match the sequential refinement. Writes to a
# scratch path so the checked-in BENCH_parallel.json keeps its full-reps
# numbers.
bench-refine:
	$(GO) run ./cmd/parbench -mode refine -reps 1 -out /tmp/BENCH_refine_smoke.json

# Serving-stack benchmark: an in-process asmodeld on a loopback port
# under a seeded client fleet with mid-run hot-swaps; writes
# schema-versioned BENCH_serve.json (checked in, gated by bench-check).
bench-serve:
	$(GO) run ./cmd/asmodeld -loadgen -gen-seed 1 -requests 2000 -clients 8 -out BENCH_serve.json

# Streaming-refinement benchmark: a seeded synthetic update stream
# through the incremental batch loop, clean run vs crash-at-half +
# resume; writes schema-versioned BENCH_stream.json (checked in, gated
# by bench-check) and fails outright if the resumed run's state file is
# not byte-identical to the clean run's.
bench-stream:
	$(GO) run ./cmd/streambench -out BENCH_stream.json

# Perf-regression gate: validate the BENCH reports against the
# checked-in baselines (generous single-core tolerances — this catches
# order-of-magnitude regressions and broken determinism flags).
bench-check:
	$(GO) run ./cmd/obsreport check BENCH_parallel.json baselines/BENCH_parallel.baseline.json
	$(GO) run ./cmd/obsreport check BENCH_gen.json baselines/BENCH_gen.baseline.json
	$(GO) run ./cmd/obsreport check BENCH_serve.json baselines/BENCH_serve.baseline.json
	$(GO) run ./cmd/obsreport check BENCH_stream.json baselines/BENCH_stream.baseline.json
