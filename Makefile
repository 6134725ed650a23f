# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; `make check` is the full pre-merge gate.

GO ?= go

.PHONY: build test race vet lint lint-suggest lint-sarif lint-budget bench-snapshot bench-diff simdebug chaos fuzz bench resume-check daemon-smoke results-drift bench-test check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -timeout: the experiments suite runs minutes of virtual time per test;
# under the race detector (or the sanitizer) the default 10m per-package
# cap is too tight on small machines. 30m still catches a genuine hang.
race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# chronolint: the repo's fifteen determinism, unit-safety, concurrency-
# safety, checkpoint-integrity, and interprocedural data-flow analyzers
# over every package including cmd/ and examples/ — see internal/analysis
# and DESIGN.md for the catalog. The driver binary is built once into
# bin/ so repeated lint runs (and the CI cache) skip the compile. Exits
# non-zero on any unsuppressed error-severity finding.
CHRONOLINT_SRCS := $(shell find internal/analysis cmd/chronolint -name '*.go' -not -path '*/testdata/*' 2>/dev/null)

bin/chronolint: $(CHRONOLINT_SRCS)
	$(GO) build -o $@ ./cmd/chronolint

lint: bin/chronolint
	bin/chronolint ./...

# Like lint, but for each finding also prints the exact //chrono:allow
# line to insert above the flagged statement. Never fails: it is a
# fix-it aid, not a gate.
lint-suggest: bin/chronolint
	-bin/chronolint -suggest ./...

# Emit SARIF 2.1.0 for code-scanning upload (CI publishes this to the
# GitHub security tab).
lint-sarif: bin/chronolint
	bin/chronolint -format sarif ./... > chronolint.sarif

# Lint-timing budget: chronolint's wall time over the full tree must stay
# within 2x the committed lint-budget.json baseline — the interprocedural
# flow layer makes lint cost a real quantity worth fencing. Re-record an
# intentional slowdown with WRITE=1 bash scripts/lint_budget.sh.
lint-budget: bin/chronolint
	bash scripts/lint_budget.sh

# Re-record the tier-1 perf baseline: COUNT=10 runs of the hot-path
# benchmarks into a dated JSON snapshot (see scripts/bench_snapshot.sh
# and BENCH_*.json; compare runs with benchstat).
bench-snapshot:
	bash scripts/bench_snapshot.sh

# Perf regression gate: snapshot the hot-path benchmarks into a fresh
# JSON and diff against the committed baseline (BASELINE=... to pick one;
# default: newest BENCH_*.json). Fails on a >10% median ns/op regression
# or ANY allocs/op increase (override the slack with THRESHOLD_PCT).
BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
bench-diff:
	@test -n "$(BASELINE)" || { echo "bench-diff: no BENCH_*.json baseline found"; exit 2; }
	OUT=/tmp/bench_current.json COUNT=5 bash scripts/bench_snapshot.sh
	THRESHOLD_PCT=$(THRESHOLD_PCT) bash scripts/bench_compare.sh $(BASELINE) /tmp/bench_current.json

# Run the test suite with the engine's invariant sanitizer forced on.
simdebug:
	$(GO) test -tags simdebug -timeout 30m ./...

# Fault-matrix soak at full length: every registered policy and the chaos
# fuzzer under the aggressive fault plan, race detector and sanitizer on —
# including the adversarial oscillation soak over all policies ±thrash-
# guard and Nomad. CI runs the same selection with -short (reduced
# virtual duration).
chaos:
	$(GO) test -race -tags simdebug -timeout 30m -count 1 -run 'TestFaultMatrix|TestChaos|TestFaultPlan|TestResilientRun' ./internal/engine/ ./internal/experiments/

# Fuzz the fault-plan parser (FuzzParsePlan: no panic, every accepted
# plan marshals to JSON, String is a parse fixed point), Chrono's sysctl
# writes (FuzzChronoSysctl: no panic, every accepted write reads back
# finite and inside the knob's range), the durable
# sweep cell's .done record (FuzzCellDone: a cell resolved from arbitrary
# record bytes short-circuits, re-runs or errors, never panics), a
# cell probe's snapshot state (FuzzCellProbe: arbitrary bytes are
# rejected, or attach, sample and render without a panic) and the
# checkpoint envelope and number-column decoder (FuzzLoad: no panic,
# every accepted file decodes like encoding/json, and a valid-JSON
# payload is accepted exactly when encoding/json accepts it). Each seed
# corpus lives in its package's testdata/fuzz/ and also runs as a plain
# test under `go test`; a new crasher is written there too. Each input
# of the two cell targets runs small simulations: minimizing a new one
# for the default 60 s would spend the whole time box, so minimization
# is capped at 100 runs.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 20s ./internal/faultinject/
	$(GO) test -run '^$$' -fuzz '^FuzzChronoSysctl$$' -fuzztime 20s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzCellDone$$' -fuzztime 20s -fuzzminimizetime 100x ./internal/experiments/
	$(GO) test -run '^$$' -fuzz '^FuzzCellProbe$$' -fuzztime 20s -fuzzminimizetime 100x ./internal/experiments/
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 20s ./internal/checkpoint/

# Hot-path microbenchmarks (simclock event loop, engine epoch, fault
# path). Output is benchstat-compatible: run with COUNT=10 and feed two
# saved runs to benchstat to compare. BENCHTIME=1x gives a smoke pass.
COUNT ?= 1
BENCHTIME ?= 1s
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(COUNT) ./...

# Kill-and-resume fence: run a quick sweep with -checkpoint-dir, SIGKILL
# it mid-flight, rerun with -resume, and require stdout byte-identical to
# an uninterrupted run (fault injection active throughout).
resume-check:
	bash scripts/resume_check.sh

# Daemon crash-recovery fence: start chronod, submit over the socket,
# kill -9 mid-flight, restart, and require the auto-resumed run's final
# table byte-identical to an uninterrupted reference — plus explicit
# load-shedding of an over-capacity submit.
daemon-smoke:
	bash scripts/daemon_smoke.sh

# Results-drift guard: regenerate the committed quick-mode tables in
# results/ (fig2a; ext+drift) and byte-diff them. Re-record an
# intentional change with
# WRITE=1 bash scripts/results_drift.sh.
results-drift:
	bash scripts/results_drift.sh

# The benchmark (chronobench/) is its own Go module, so the root
# `go test ./...` skips it. Vet and test it here: a change to the
# packages it drives (daemon, experiments, engine) must not break it.
bench-test:
	cd chronobench && $(GO) vet ./... && $(GO) test -count=1 ./...

check: build vet lint race simdebug

clean:
	$(GO) clean ./...
