GO ?= go

.PHONY: all build test vet race check bench-go fuzz-smoke

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

# Go microbenchmarks (testing.B) at the repo root.
bench-go:
	$(GO) test -bench=. -benchmem -run=^$$ .
