#!/usr/bin/env bash
# resume_check.sh — the kill-and-resume fence for durable sweeps.
#
# Runs a quick multi-experiment reproduction (fig8, fig13, fig12, ext:
# a pmbench grid, the Chrono variants, the KV stores and a sweep whose
# F1/PPR records are stored with its cells) three ways:
#   1. uninterrupted, no checkpointing            -> reference output
#   2. with -checkpoint-dir, SIGKILLed mid-flight -> durable state on disk
#   3. the same command with -resume              -> must complete
# and then requires the resumed run's stdout to be byte-for-byte identical
# to the reference. An aggressive fault-injection plan is active the whole
# time, so the engine snapshot/restore path is exercised with injector RNG
# streams mid-run.
#
# SIGKILL (not SIGINT) is the point: the interrupted process gets no
# chance to drain, so the fence covers torn temp files, mid-cell periodic
# snapshots, and cells that never checkpointed at all.
set -u

FLAGS=(-experiment fig8,fig13,fig12,ext -quick -seed 42 -faults aggressive -j 4)
# About 5.5 s runs all four on 2 vCPUs, fig8 finishing near 2 s: a kill
# at 3 s lands after fig8, inside fig13.
KILL_AFTER="${KILL_AFTER:-3}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
bin="$work/reproduce"
ckpt="$work/ckpt"

echo "resume-check: building cmd/reproduce"
go build -o "$bin" ./cmd/reproduce || exit 1

echo "resume-check: reference run (uninterrupted)"
"$bin" "${FLAGS[@]}" >"$work/ref.txt" 2>"$work/ref.err" || {
    echo "resume-check: reference run failed" >&2
    cat "$work/ref.err" >&2
    exit 1
}

echo "resume-check: durable run, SIGKILL after ${KILL_AFTER}s"
"$bin" "${FLAGS[@]}" -checkpoint-dir "$ckpt" -checkpoint-interval 300ms \
    >"$work/killed.txt" 2>"$work/killed.err" &
victim=$!
sleep "$KILL_AFTER"
# The run may legitimately have finished on a fast machine; the fence
# still validates resume-over-finished-cells in that case.
kill -9 "$victim" 2>/dev/null && echo "resume-check: killed pid $victim"
wait "$victim" 2>/dev/null

if [ ! -f "$ckpt/sweepinfo.json" ]; then
    echo "resume-check: no sweepinfo.json recorded before the kill" >&2
    exit 1
fi
echo "resume-check: experiments finished before the kill:"
grep -o '^\[[a-z0-9]* done' "$work/killed.err" | sed 's/^\[/    /; s/ done$//' || echo "    (none)"
echo "resume-check: durable state after kill: $(ls "$ckpt/cells" 2>/dev/null | grep -c '\.done$') finished cells," \
    "$(ls "$ckpt/cells" 2>/dev/null | grep -c '\.ckpt$') snapshots"

echo "resume-check: resuming"
"$bin" "${FLAGS[@]}" -checkpoint-dir "$ckpt" -resume \
    >"$work/resumed.txt" 2>"$work/resumed.err" || {
    echo "resume-check: resumed run failed" >&2
    cat "$work/resumed.err" >&2
    exit 1
}

if ! diff "$work/ref.txt" "$work/resumed.txt" >"$work/diff.txt"; then
    echo "resume-check: FAIL — resumed output differs from the uninterrupted run:" >&2
    cat "$work/diff.txt" >&2
    exit 1
fi
echo "resume-check: PASS — resumed output is byte-identical to the reference"
