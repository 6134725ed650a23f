#!/usr/bin/env bash
# bench_snapshot.sh — record the tier-1 hot-path benchmark baseline.
#
# Runs the tier-1 hot-path benchmarks (simclock event loop, engine
# epoch, fault path, adversarial oscillation, Memtis kmigrated, an adv
# cell's build, checkpoint save and load) COUNT
# times each with -benchmem and writes every sample into a dated JSON
# snapshot (BENCH_YYYY-MM.json) alongside the toolchain/host metadata
# needed to interpret it later. The raw `go test` output is
# benchstat-compatible; the JSON exists so a future regression gate can
# diff medians without re-parsing bench text.
#
#   COUNT=10 BENCHTIME=1s scripts/bench_snapshot.sh
#   OUT=/tmp/after.json scripts/bench_snapshot.sh   # compare runs
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-10}"
BENCHTIME="${BENCHTIME:-1s}"
STAMP="${STAMP:-$(date +%Y-%m)}"
OUT="${OUT:-BENCH_${STAMP}.json}"
BENCHES='BenchmarkSimclockEvents|BenchmarkEngineEpoch|BenchmarkEngineEpochHighFidelity|BenchmarkFaultPath|BenchmarkAdversarialOscillation|BenchmarkMemtisKmigrated|BenchmarkBuild|BenchmarkCheckpointSaveLoad'

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "^(${BENCHES})\$" -benchmem \
	-benchtime "$BENCHTIME" -count "$COUNT" . | tee "$raw"

# Fold the bench text into JSON. Lines of interest:
#   goos: linux / goarch: amd64 / cpu: ...
#   BenchmarkFaultPath-8   12345   987.6 ns/op   12 B/op   3 allocs/op
# Values are located by their unit token, not by column position —
# simulation benchmarks interleave custom b.ReportMetric units (FMAR%,
# Mops/s, migGB, ...) among the standard ones.
awk -v count="$COUNT" -v benchtime="$BENCHTIME" \
	-v date="$(date +%Y-%m-%d)" -v gover="$(go env GOVERSION)" '
function jescape(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); return s }
/^goos: /   { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^Benchmark/, "", name)
	ns = "null"; bop = "null"; al = "null"
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		else if ($(i + 1) == "B/op") bop = $i
		else if ($(i + 1) == "allocs/op") al = $i
	}
	s = sprintf("{\"iters\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", $2, ns, bop, al)
	if (name in samples) samples[name] = samples[name] ", " s
	else { samples[name] = s; order[++n] = name }
}
END {
	printf "{\n"
	printf "  \"date\": \"%s\",\n", jescape(date)
	printf "  \"go\": \"%s\",\n", jescape(gover)
	printf "  \"goos\": \"%s\",\n", jescape(goos)
	printf "  \"goarch\": \"%s\",\n", jescape(goarch)
	printf "  \"cpu\": \"%s\",\n", jescape(cpu)
	printf "  \"count\": %d,\n", count
	printf "  \"benchtime\": \"%s\",\n", jescape(benchtime)
	printf "  \"benchmarks\": {\n"
	for (i = 1; i <= n; i++) {
		printf "    \"%s\": [%s]%s\n", order[i], samples[order[i]], (i < n ? "," : "")
	}
	printf "  }\n}\n"
}' "$raw" >"$OUT"

echo "wrote $OUT"
