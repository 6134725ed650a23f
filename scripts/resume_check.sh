#!/usr/bin/env bash
# resume_check.sh — the kill-and-resume fence for durable sweeps.
#
# Runs a quick multi-experiment reproduction (fig8, fig9, fig13, fig12,
# ext: a pmbench grid, the multi-tenant placement histories sampled by
# cell probes, the Chrono variants, the KV stores and a sweep whose
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

FLAGS=(-experiment fig8,fig9,fig13,fig12,ext -quick -seed 42 -faults aggressive -j 4)
# The durable run is killed as soon as the first fig9 cell snapshot
# (a .ckpt holding its probes' samples) exists, whatever the host's
# speed, so the resume always restores a cell from probe state. The
# deadline only bounds a run that never writes one.
DEADLINE_S=300

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

# fig9_snapshots counts the fig9 cell snapshots on disk.
fig9_snapshots() {
    grep -l '"experiment":"fig9"' "$ckpt"/cells/*.ckpt 2>/dev/null | wc -l
}

echo "resume-check: durable run, SIGKILL at the first fig9 snapshot"
"$bin" "${FLAGS[@]}" -checkpoint-dir "$ckpt" -checkpoint-interval 300ms \
    >"$work/killed.txt" 2>"$work/killed.err" &
victim=$!
deadline=$((SECONDS + DEADLINE_S))
while kill -0 "$victim" 2>/dev/null && [ "$(fig9_snapshots)" -eq 0 ] && [ "$SECONDS" -lt "$deadline" ]; do
    sleep 0.05
done
kill -9 "$victim" 2>/dev/null && echo "resume-check: killed pid $victim"
wait "$victim" 2>/dev/null

if [ ! -f "$ckpt/sweepinfo.json" ]; then
    echo "resume-check: no sweepinfo.json recorded before the kill" >&2
    exit 1
fi
if [ "$(fig9_snapshots)" -eq 0 ]; then
    echo "resume-check: FAIL — no fig9 snapshot existed at the kill, so the resume restores no cell from probe state" >&2
    cat "$work/killed.err" >&2
    exit 1
fi
echo "resume-check: experiments finished before the kill:"
grep -o '^\[[a-z0-9]* done' "$work/killed.err" | sed 's/^\[/    /; s/ done$//' || echo "    (none)"
echo "resume-check: durable state after kill: $(ls "$ckpt/cells" 2>/dev/null | grep -c '\.done$') finished cells," \
    "$(ls "$ckpt/cells" 2>/dev/null | grep -c '\.ckpt$') snapshots," \
    "$(grep -l '"experiment":"fig9"' "$ckpt"/cells/*.ckpt 2>/dev/null | wc -l) of them fig9's"

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
