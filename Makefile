# Convenience targets for the clusteragg reproduction.

GO ?= go

.PHONY: all build test vet lint race test-race check cover perfbench bench bench-all bench-short bench-mem bench-ingest bench-obs bench-huge benchdiff experiments experiments-full fuzz fuzz-localsearch fuzz-kernel fuzz-widths fuzz-ingest clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static hygiene: go vet plus a repo-wide gofmt check (fails listing any
# file that gofmt would rewrite).
lint: vet
	@fmt=$$(gofmt -l .); \
	if [ -n "$$fmt" ]; then \
		echo "lint: gofmt needed on:"; echo "$$fmt"; exit 1; \
	fi; \
	echo "lint: gofmt clean"

race: test-race

test-race:
	$(GO) test -race ./...

# The full gate: compile, vet + gofmt, tests, the race detector, the obs
# coverage floor, the benchmark module's vet + tests, the allocation pins,
# one pass of the distance-kernel benchmarks (a smoke test that they still
# run), the ingest benchmark suite, the obs-overhead cost sheet, and the
# bench-report regression diff against the committed baseline.
check: build lint test test-race cover perfbench bench-mem bench-short bench-ingest bench-obs benchdiff

# perfbench/ is a Go module of its own, so `go build ./...` and
# `go test ./...` at the root never compile it: vet and test it here, so an
# internal API change cannot break the benchmark without failing the gate.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Regression gate: regenerate the bench report and diff it against the
# committed BENCH_experiments.json (counters exact, cost to float tolerance,
# wall time ratio-thresholded; machine-dependent series ignored — see
# cmd/benchdiff). Fails the build on any unreviewed behavior change.
benchdiff:
	@tmp=$$(mktemp /tmp/benchdiff.XXXXXX.json); \
	$(GO) run ./cmd/experiments -report $$tmp all >/dev/null && \
	$(GO) run ./cmd/benchdiff BENCH_experiments.json $$tmp; \
	st=$$?; rm -f $$tmp; exit $$st

# The telemetry layer is the one subsystem every algorithm and both CLIs
# depend on, so its statement coverage is gated: the build fails when
# internal/obs drops below the floor.
OBS_COVER_FLOOR ?= 85.0

cover:
	@tmp=$$(mktemp /tmp/obscover.XXXXXX.out); \
	$(GO) test -coverprofile=$$tmp ./internal/obs/ >/dev/null && \
	total=$$($(GO) tool cover -func=$$tmp | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	st=$$?; rm -f $$tmp; \
	if [ $$st -ne 0 ] || [ -z "$$total" ]; then echo "cover: failed to measure internal/obs"; exit 1; fi; \
	echo "internal/obs coverage: $$total% (floor $(OBS_COVER_FLOOR)%)"; \
	awk "BEGIN { exit !($$total >= $(OBS_COVER_FLOOR)) }" || \
		{ echo "cover: internal/obs coverage $$total% is below the $(OBS_COVER_FLOOR)% floor"; exit 1; }

# The distance-kernel suite: block materialization vs the naive build,
# LOCALSEARCH on matrix rows vs generic calls, the incremental LOCALSEARCH
# kernel, BestOf racing, and the label-kernel
# sampling assignment vs the test-only probing reference; then the
# corrclust algorithms against their test-only oracles (AGGLOMERATIVE vs
# the lazy-heap loop, FURTHEST's reads per run, the incremental LOCALSEARCH
# kernel vs the reference sweep). See docs/PERFORMANCE.md for how to read
# the numbers.
bench:
	$(GO) test -run xxx -bench 'BenchmarkMaterialize$$|BenchmarkLocalSearchMatrix$$|BenchmarkLocalSearchIncremental$$|BenchmarkBestOf$$|BenchmarkSampleAssign$$|BenchmarkSampleLarge$$' -benchmem ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkAgglomerative$$|BenchmarkFurthest$$|BenchmarkLocalSearch$$' -benchmem ./internal/corrclust/

# One iteration of both suites, as a fast correctness smoke test.
bench-short:
	$(GO) test -run xxx -bench 'BenchmarkMaterialize$$|BenchmarkLocalSearchMatrix$$|BenchmarkLocalSearchIncremental$$|BenchmarkBestOf$$|BenchmarkSampleAssign$$|BenchmarkSampleLarge$$' -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkAgglomerative$$|BenchmarkFurthest$$|BenchmarkLocalSearch$$' -benchtime 1x -benchmem ./internal/corrclust/

# The allocation-pin suite: testing.AllocsPerRun assertions that the hot
# paths (pooled assignment scratch, kernel distance rows, packed label
# accessors, CSV interning, the AGGLOMERATIVE merge loop) hold their
# zero-/constant-allocation steady state. Part of `make check`; any new
# per-object or per-merge allocation fails here before it shows up as a
# benchdiff alloc regression.
bench-mem:
	$(GO) test -run 'Alloc' -count=1 ./internal/core/ ./internal/corrclust/ ./internal/dataset/ ./internal/obs/

# The ingest suite: CSV reader throughput on one chunk parsed in place and
# with a handoff to the chunk parsers (internal/dataset, full benchtime with
# -benchmem) plus one smoke pass of the end-to-end CSV→labels facade
# benchmarks (the "ingest" artifact and AggregateCSV). Part of `make check`.
bench-ingest:
	$(GO) test -run xxx -bench 'BenchmarkReadCSV$$' -benchmem ./internal/dataset/
	$(GO) test -run xxx -bench 'BenchmarkIngestThroughput$$|BenchmarkAggregateCSV$$' -benchtime 1x -benchmem .

# The observability cost sheet: the BenchmarkObsOverhead suite prices the
# hooks compiled into the algorithms — Do/Event/Sample on their disabled
# (nil/off) paths must stay a few ns and 0 B/op, with the live paths printed
# alongside for comparison. The allocation *assertions* live in bench-mem
# (TestDisabledObsZeroAllocs); this prints the numbers.
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkObsOverhead' -benchmem ./internal/obs/

# The n=10M artifact, opt-in (never part of bench, bench-short, or check —
# the 200k → 10M ladder runs for tens of seconds and the top rung allocates
# most of a gigabyte): one pass of BenchmarkSampleHuge, then the experiments
# "huge" scaling ladder diffed against the committed BENCH_huge.json
# baseline (counters and cluster counts exact, Rand index toleranced, wall
# time ratio-budgeted).
bench-huge:
	$(GO) test -run xxx -bench 'BenchmarkSampleHuge$$' -benchtime 1x -benchmem ./internal/core/
	@tmp=$$(mktemp /tmp/benchhuge.XXXXXX.json); \
	$(GO) run ./cmd/experiments -report $$tmp huge && \
	$(GO) run ./cmd/benchdiff BENCH_huge.json $$tmp; \
	st=$$?; rm -f $$tmp; exit $$st

# Fuzz the incremental LOCALSEARCH kernel against the reference sweep.
fuzz-localsearch:
	$(GO) test -run FuzzLocalSearchIncremental -fuzz FuzzLocalSearchIncremental -fuzztime 30s ./internal/corrclust/

# Fuzz the columnar label kernel's DistRowTo and Dist against the test-only
# []int pair loop (refDist in internal/core/reference_test.go).
fuzz-kernel:
	$(GO) test -run FuzzLabelKernelEquiv -fuzz FuzzLabelKernelEquiv -fuzztime 30s ./internal/core/

# Fuzz the width-packed label blocks: uint8/uint16 must be bit-identical to
# the forced-int32 kernel on the same instance.
fuzz-widths:
	$(GO) test -run FuzzLabelKernelWidths -fuzz FuzzLabelKernelWidths -fuzztime 30s ./internal/core/

# Fuzz a forced handoff to the chunk parsers against the one-pass parse:
# tables (ids, order, missing cells) and errors must be identical at every
# parser count and chunk size.
fuzz-ingest:
	$(GO) test -run FuzzReadCSVParallelEquiv -fuzz FuzzReadCSVParallelEquiv -fuzztime 30s ./internal/dataset/

# Everything: one benchmark per table/figure plus the ablations.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure at the default (reduced) scale.
experiments:
	$(GO) run ./cmd/experiments all

# The paper's original sizes (minutes).
experiments-full:
	$(GO) run ./cmd/experiments -full all

# Short fuzzing passes over the CSV loader, partition invariants, the label
# kernel against the []int pair loop, the contingency-table objective and
# distinct-row lower bound against the pair scans, incremental FURTHEST
# against its full-Cost reference, AGGLOMERATIVE's cached-neighbor loop
# against its lazy-heap reference, SAMPLING's twin-memoized assignment
# against the probing reference, and AggregateCSV from raw bytes (a defined
# error or the table reference's valid labeling at every Workers setting).
fuzz:
	$(GO) test -run '^FuzzReadCSV$$' -fuzz '^FuzzReadCSV$$' -fuzztime 30s ./internal/dataset/
	$(GO) test -run FuzzNormalize -fuzz FuzzNormalize -fuzztime 30s ./internal/partition/
	$(GO) test -run FuzzDistance -fuzz FuzzDistance -fuzztime 30s ./internal/partition/
	$(GO) test -run FuzzLabelKernelEquiv -fuzz FuzzLabelKernelEquiv -fuzztime 30s ./internal/core/
	$(GO) test -run FuzzObjectiveExact -fuzz FuzzObjectiveExact -fuzztime 30s ./internal/core/
	$(GO) test -run FuzzFurthestIncremental -fuzz FuzzFurthestIncremental -fuzztime 30s ./internal/corrclust/
	$(GO) test -run FuzzAgglomerative -fuzz FuzzAgglomerative -fuzztime 30s ./internal/corrclust/
	$(GO) test -run FuzzSampleAssignMemo -fuzz FuzzSampleAssignMemo -fuzztime 30s ./internal/core/
	$(GO) test -run FuzzAggregateCSV -fuzz FuzzAggregateCSV -fuzztime 30s .

clean:
	$(GO) clean ./...
	rm -rf testdata/fuzz internal/dataset/testdata/fuzz internal/partition/testdata/fuzz internal/core/testdata/fuzz internal/corrclust/testdata/fuzz
