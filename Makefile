# Tier-1 verification for the SPIFFI simulator. `make verify` is what CI
# (and pre-commit discipline) runs: build, vet, a gofmt check, the full
# test suite, a race-detector pass in short mode, and the benchmark's
# short tests. The simulation-heavy experiment tests skip themselves
# under -short, but the parallel-runner coverage (core search parity,
# the 1-worker Runner-bound check, the experiments' run-grid test and
# the fig09 worker-determinism check) does not, so the race pass always
# exercises multi-worker execution.

GO ?= go

.PHONY: all build vet fmt-check test race determinism verify bench bench-test trace-guard allocs-guard trace-demo staticcheck govulncheck chaos chaos-soak doc-check fuzz-workload fuzz-seed

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails listing any Go file gofmt would rewrite (the benchmark's
# .bench_build/ caches excepted).
fmt-check:
	@out=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test -timeout 30m ./...

race:
	$(GO) test -race -short ./...

# The full worker-determinism suite: every registered experiment must
# produce byte-identical results with Workers=1 and Workers=8.
determinism:
	$(GO) test -run Determinism -timeout 30m -v ./...

# Observability guards (OBSERVABILITY.md): disabled tracing must perturb
# nothing and stay under 2% overhead, and the trace package's exporters
# must hold their formats. Both run in short mode, so `verify` exercises
# them twice (here and in the race pass); the explicit target keeps the
# contract visible and quick to iterate on.
trace-guard:
	$(GO) test -short -run TracingNeutralityAndOverhead .
	$(GO) test -short ./internal/trace/

# Allocation budgets on the block-request path: a warm kernel's spawn,
# sleep and queue wake, a warm node's hit and miss, and a whole run's
# allocations per block request. The whole-run budget skips itself under
# -race, whose instrumentation allocates, so it holds only here.
allocs-guard:
	$(GO) test -count=1 -run Allocations ./internal/sim/ ./internal/server/ ./internal/core/

# Optional linters: run when installed, skip (without failing) when the
# environment does not have them — this repo vendors nothing and `make
# verify` must work with only the Go toolchain present.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

# Chaos soak (FAULTS.md): seeded randomized fault schedules — node
# crashes, disk fail-stops and slowdowns, network loss — under the race
# detector with run-end invariant checks (admission slot conservation,
# impacted = recovered + lost, protected streams never shed-glitched,
# same-seed metric equality). The -short budget runs one seed so
# `verify` stays quick; drop it (CHAOS_SOAK_FLAGS=) to soak every seed.
CHAOS_SOAK_FLAGS ?= -short
chaos-soak:
	$(GO) test -race $(CHAOS_SOAK_FLAGS) -run ChaosSoak -timeout 10m ./internal/core/

# Documentation drift: broken intra-repo markdown links, CLI flags
# missing from README.md, and README flag-reference rows naming flags no
# tool registers (cmd/spiffi-doccheck).
doc-check:
	$(GO) run ./cmd/spiffi-doccheck

# Workload-schedule fuzzing (WORKLOADS.md). fuzz-seed replays the
# checked-in corpus plus the f.Add seeds as plain unit tests — cheap and
# deterministic, so it rides `verify`. fuzz-workload explores new inputs
# for a bounded burst; run it when touching the spec parser or compiler.
fuzz-seed:
	$(GO) test -run FuzzWorkloadSchedule ./internal/workload/

fuzz-workload:
	$(GO) test -fuzz FuzzWorkloadSchedule -fuzztime 30s ./internal/workload/

verify: build vet fmt-check staticcheck govulncheck test race trace-guard allocs-guard chaos-soak fuzz-seed doc-check bench-test

# Seeded chaos suite under the race detector: fault injection, overload
# control, admission, retry and rebuild tests (FAULTS.md, OVERLOAD.md).
# Deterministic seeds make every failure reproducible.
chaos:
	$(GO) test -race -run 'Fault|FailStop|Retry|Nack|Admission|Estimator|Rebuild|Overload|Shed|Degraded|Crash|Patience' \
		./internal/core/ ./internal/terminal/ ./internal/admission/ ./internal/overload/ ./internal/faults/ ./internal/server/ ./internal/disk/

# End-to-end observability demo: run a traced Figure-10-style workload,
# write JSONL + Chrome trace files, and validate the Chrome JSON parses
# (the example program fails if it does not).
trace-demo:
	$(GO) run ./examples/tracing

# The repo benchmark (bench/README.md): four simulator workloads with
# end-to-end and per-layer metrics, one JSON result line at the end.
bench:
	bash bench/run.sh

# bench/ is a module of its own, so the root `go vet ./...` and
# `go test ./...` do not reach it. Vet it, and run its short tests, which
# check the pinned golden digests and that it still builds against the
# simulator packages.
bench-test:
	cd bench && $(GO) vet ./...
	cd bench && $(GO) test -short ./...
