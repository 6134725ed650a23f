#!/usr/bin/env bash
# results_drift.sh — the results-drift guard.
#
# The committed results/quick_*.txt files are quick-mode reproductions
# of small tables at the default seed, and results/adv.txt one
# full-length table:
#   - quick_fig2a.txt: Figure 2a, every standard policy;
#   - quick_ext_drift.txt: the all-systems extension and the drifting
#     hotspot, whose Memtis rows move if Memtis' demotion order changes,
#     down to the order of pages with equal counters;
#   - quick_fig9_10a_11b.txt: the Figure 9 placement histories, the
#     Figure 10a CIT correlation and the Figure 11b sensitivity sweep,
#     the harness paths that sample a run or attach a customized policy;
#   - quick_ext_faults.txt: the all-systems extension under the aggressive
#     fault plan, whose rows move if a policy's migration retry count
#     changes (the retries consume injector draws);
#   - adv.txt: the full-length (not quick) adversarial oscillation and
#     rotation tables, whose Memtis rows move if the demotion order of
#     counter-0 candidate lists changes, which the quick runs are too
#     short to reach.
# CI regenerates them and requires a byte-for-byte match: any change to
# the engine, a policy, the RNG discipline, or the table renderer that
# moves a published number must show up as a reviewable diff to a
# committed artifact, never as silent drift.
#
# After an *intentional* change to the numbers, re-record them with:
#
#   WRITE=1 bash scripts/results_drift.sh
#
# and commit the updated files alongside the change that moved them.
set -u

GOLDENS=(results/quick_fig2a.txt results/quick_ext_drift.txt results/quick_fig9_10a_11b.txt results/quick_ext_faults.txt results/adv.txt)

# gen <golden> — regenerate one golden's table on stdout.
gen() {
    case "$1" in
    results/quick_fig2a.txt) go run ./cmd/reproduce -quick -experiment fig2a -seed 42 ;;
    results/quick_ext_drift.txt) go run ./cmd/reproduce -quick -experiment ext,drift -seed 42 ;;
    results/quick_fig9_10a_11b.txt) go run ./cmd/reproduce -quick -experiment fig9,fig10a,fig11b -seed 42 ;;
    results/quick_ext_faults.txt) go run ./cmd/reproduce -quick -experiment ext -faults aggressive -seed 42 ;;
    results/adv.txt) go run ./cmd/reproduce -experiment adv -seed 42 ;;
    esac
}

if [ "${WRITE:-0}" = "1" ]; then
    for golden in "${GOLDENS[@]}"; do
        gen "$golden" >"$golden" || exit 1
        echo "results-drift: re-recorded $golden"
    done
    exit 0
fi

cur="$(mktemp)"
trap 'rm -f "$cur"' EXIT
fail=0
for golden in "${GOLDENS[@]}"; do
    [ -f "$golden" ] || { echo "results-drift: missing $golden (run WRITE=1 $0)" >&2; exit 1; }
    gen "$golden" >"$cur" || { echo "results-drift: reproduction of $golden failed" >&2; exit 1; }
    if ! diff -u "$golden" "$cur"; then
        echo "results-drift: FAIL — regenerated table differs from committed $golden" >&2
        fail=1
    fi
done
if [ "$fail" = 1 ]; then
    echo "results-drift: if the change is intentional, WRITE=1 bash $0 and commit" >&2
    exit 1
fi
echo "results-drift: PASS — ${GOLDENS[*]} match fresh reproductions"
