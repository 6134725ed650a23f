package run

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy/tpp"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// newEngine builds a small TPP engine over procs pmbench processes.
func newEngine(t *testing.T, procs int) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{Seed: 3, FastGB: 1, SlowGB: 3})
	w := &workload.Pmbench{Processes: procs, WorkingSetGB: 1, ReadPct: 70, Stride: 2}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	e.AttachPolicy(tpp.New())
	return e
}

// Open's fallbacks: no snapshot builds fresh; an unreadable snapshot, one
// that does not overlay the build and one whose build(ck) fails with
// ErrStale are deleted and replayed from scratch on build(nil), reported
// as ErrStale; a snapshot check rejects is returned as is and kept.
func TestOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	src := newEngine(t, 2)
	src.Run(simclock.Second)
	if err := Save(path, src, Checkpoint[string]{Spec: "spec"}); err != nil {
		t.Fatal(err)
	}

	var builds []int // process count of every build, -1 for build(nil)
	build := func(procs int) func(*Checkpoint[string]) (*engine.Engine, error) {
		return func(ck *Checkpoint[string]) (*engine.Engine, error) {
			if ck == nil {
				builds = append(builds, -1)
				return newEngine(t, 2), nil
			}
			builds = append(builds, procs)
			return newEngine(t, procs), nil
		}
	}

	rejected := errors.New("recorded for another run")
	_, _, _, err := Open(path, func(*Checkpoint[string]) error { return rejected }, build(2))
	if !errors.Is(err, rejected) {
		t.Fatalf("check error not returned: %v", err)
	}
	if _, serr := os.Stat(path); serr != nil {
		t.Fatalf("a rejected snapshot must be kept: %v", serr)
	}

	builds = nil
	_, ck, stale, err := Open(path, nil, build(2))
	if err != nil || stale != nil || ck == nil || ck.Spec != "spec" {
		t.Fatalf("restorable snapshot: ck=%v stale=%v err=%v", ck, stale, err)
	}
	if len(builds) != 1 || builds[0] != 2 {
		t.Fatalf("builds %v, want one build for the snapshot", builds)
	}

	// build rejecting the snapshot's caller state replays from scratch,
	// and the snapshot is dropped like one that does not restore.
	builds = nil
	_, ck, stale, err = Open(path, nil, func(ck *Checkpoint[string]) (*engine.Engine, error) {
		if ck != nil {
			builds = append(builds, 2)
			return nil, fmt.Errorf("%w: bad probe", ErrStale)
		}
		return build(2)(nil)
	})
	if err != nil || ck != nil || !errors.Is(stale, ErrStale) {
		t.Fatalf("snapshot build rejects: ck=%v stale=%v err=%v", ck, stale, err)
	}
	if len(builds) != 2 || builds[1] != -1 {
		t.Fatalf("builds %v, want the rejected build then a fresh one", builds)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("rejected snapshot kept: %v", serr)
	}
	if err := Save(path, src, Checkpoint[string]{Spec: "spec"}); err != nil {
		t.Fatal(err)
	}

	builds = nil
	_, ck, stale, err = Open(path, nil, build(3))
	if err != nil || ck != nil || !errors.Is(stale, ErrStale) {
		t.Fatalf("snapshot of another shape: ck=%v stale=%v err=%v", ck, stale, err)
	}
	if len(builds) != 2 || builds[1] != -1 {
		t.Fatalf("builds %v, want the snapshot's build then a fresh one", builds)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("unrestorable snapshot kept: %v", serr)
	}

	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ck, stale, err = Open(path, nil, build(2))
	if err != nil || ck != nil || !errors.Is(stale, ErrStale) {
		t.Fatalf("corrupt snapshot: ck=%v stale=%v err=%v", ck, stale, err)
	}

	builds = nil
	_, ck, stale, err = Open(path, nil, build(2))
	if err != nil || ck != nil || stale != nil || len(builds) != 1 || builds[0] != -1 {
		t.Fatalf("no snapshot: ck=%v stale=%v err=%v builds=%v", ck, stale, err, builds)
	}
}
