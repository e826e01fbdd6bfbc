# Standard verification gate for the HARL reproduction.
#
#   make           — vet + build + unit tests
#   make fmt       — gofmt the whole tree in place
#   make lint      — the determinism lint suite (internal/lint): one
#                    harl-lint run of its six analyzers over every package
#                    of the module, the whole-program deadexport pass
#                    included (exports only tests use, and internal/ funcs,
#                    vars and consts only their own package uses; types wait
#                    for a value-flow walk), plus staticcheck when it is on
#                    PATH
#   make race      — the full suite under the race detector (the merge gate
#                    for anything touching the concurrent tuning engine)
#   make bench     — one pass over every experiment benchmark
#   make bench-hot — the search hot-path microbenchmarks (features, schedule
#                    key, evolutionary mutation, the schedule's text form,
#                    batch scoring, refit with the histogram fill and
#                    boundary scans on their lanes and on their Go loops,
#                    single-row and batch
#                    prediction, PPO window step and update, the update
#                    also pinned to one proc, and under those nn's
#                    matrix kernel and element-wise lanes, AVX and portable),
#                    repeated BENCH_COUNT times with allocation stats into
#                    bench-hot.txt
#   make benchcmp  — bench-hot, then benchstat against the committed
#                    bench/baseline.txt (needs benchstat on PATH:
#                    go install golang.org/x/perf/cmd/benchstat@latest)
#   make cover     — coverage profile across ./... and the total percentage
#   make fuzz      — 25 s of fuzzing, split five ways between the repo's fuzz
#                    targets: FuzzUnmarshalCheckpoint (the cost-model checkpoint
#                    decoder), FuzzFill and FuzzScan (the cost model's histogram
#                    fill and boundary scan lanes against their Go loops),
#                    FuzzLanes (nn's element-wise lanes
#                    against math's scalars, its glue loops against their Go
#                    loops) and FuzzGemm (nn's matrix kernel against the naive
#                    triple loop); crashers land in the package's testdata/fuzz/
#   make loc       — non-test Go lines outside benchmark/: the number ROADMAP
#                    item 5 ("one of everything") drives down; fails above
#                    LOC_RATCHET, the count of the last PR that lowered it (the
#                    ratchet only turns one way: lower it with the count)
#   make check     — everything: vet, lint, build, tests, race

GO ?= go

# The search hot path: schedule featurization and identity hash (each cold and
# memoized), an evolutionary child (Mutate, then its Key and Features), the
# schedule's text form every journal record and fleet trial carries
# (MarshalSteps), batch candidate scoring, cost model refit (synthetic rows and real schedule
# features, the real ones also with the cost model's lanes off), single-row prediction and batch
# prediction, the PPO window step (32 tracks' ActBatch, ValueBatch, Observe
# and Tick at the GEMM-1024³ agent's dims) and update that are most of a HARL
# session, the update again at GOMAXPROCS 1 (its critic half then runs after
# the actor's, so the fork's single-core cost is gated too), and the matrix
# kernel and element-wise lanes under them (internal/nn's
# BenchmarkGemm and BenchmarkLanes, both implementations). CI's perf-smoke job
# runs exactly this set on the base and head commits and fails on significant
# regressions.
HOT_BENCH ?= ^(BenchmarkScheduleFeatures|BenchmarkScheduleKey|BenchmarkScheduleMutate|BenchmarkMarshalSteps|BenchmarkScoreBatch|BenchmarkRefit|BenchmarkCostModelPredict|BenchmarkPredictBatch|BenchmarkPPOWindowStep|BenchmarkPPOTrain|BenchmarkPPOTrainOneProc|BenchmarkGemm|BenchmarkLanes)$$
BENCH_COUNT ?= 10

# The make loc ratchet. This is the one place the number lives: CI, README and
# ROADMAP refer to it by name.
LOC_RATCHET = 14999

.PHONY: all fmt vet lint build test race bench bench-hot benchcmp cover fuzz loc check

all: vet build test

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# harl-lint takes no arguments: it type-checks every package of the module
# once and runs all six analyzers over them. deadexport needs every
# package's uses at once, which is why the command never lints less than the
# whole module. It reports exports only tests use, and internal/ funcs, vars
# and consts no other package uses; types are not checked, since one can
# cross a package boundary unnamed and seeing that needs a value-flow walk.
# staticcheck is optional locally (CI installs a pinned version).
lint:
	$(GO) build -o bin/harl-lint ./cmd/harl-lint
	bin/harl-lint
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck -checks=SA ./..."; \
		staticcheck -checks=SA ./...; \
	else \
		echo "staticcheck not on PATH; skipping (CI runs it pinned)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full race suite exceeds Go's default 10m per-package timeout on
# single-core boxes (see the verify notes); give it explicit headroom.
race:
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

bench-hot:
	$(GO) test -run='^$$' -bench='$(HOT_BENCH)' -count=$(BENCH_COUNT) -benchmem . ./internal/nn | tee bench-hot.txt

benchcmp: bench-hot
	benchstat bench/baseline.txt bench-hot.txt

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Minimization is capped so the 25 s go to new inputs, not to shrinking the
# first interesting one (the default spends up to a minute on each).
fuzz:
	$(GO) test ./internal/costmodel -run='^$$' -fuzz=FuzzUnmarshalCheckpoint -fuzztime=5s -fuzzminimizetime=1s
	$(GO) test ./internal/costmodel -run='^$$' -fuzz=FuzzFill -fuzztime=5s -fuzzminimizetime=1s
	$(GO) test ./internal/costmodel -run='^$$' -fuzz=FuzzScan -fuzztime=5s -fuzzminimizetime=1s
	$(GO) test ./internal/nn -run='^$$' -fuzz=FuzzLanes -fuzztime=5s -fuzzminimizetime=1s
	$(GO) test ./internal/nn -run='^$$' -fuzz=FuzzGemm -fuzztime=5s -fuzzminimizetime=1s

loc:
	@n=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*/*' -print0 | xargs -0 cat | wc -l); \
	echo $$n; \
	if [ $$n -gt $(LOC_RATCHET) ]; then echo "make loc: $$n lines, above the $(LOC_RATCHET) the ratchet stands at" >&2; exit 1; fi

check: vet lint build test race
