package daemon

// Daemon behavior tests. Everything runs against real engines with tiny
// specs (seconds of virtual time, megabyte-scale tiers), so the suite
// exercises the genuine snapshot/restore/swap machinery, not mocks.
//
// Wall-clock use here is test pacing and deadlines only, annotated for
// the detclock linter.

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chrono/internal/checkpoint"
	"chrono/internal/engine"
	"chrono/internal/simclock"
	"chrono/internal/watchdog"
)

// testSpec is small enough to finish in milliseconds unpaced.
func testSpec() RunSpec {
	return RunSpec{
		Policy: "TPP", Workload: "pmbench", Procs: 2, WSGB: 1,
		DurationS: 2, FastGB: 1, SlowGB: 3, Seed: 7,
	}
}

// writeConfig materializes a config file for New.
func writeConfig(t *testing.T, dir, body string) string {
	t.Helper()
	path := filepath.Join(dir, "chronod.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// newTestDaemon builds a daemon over a fresh state dir with the given
// config body ("" = defaults) and arranges shutdown at test end.
func newTestDaemon(t *testing.T, stateDir, cfgBody string) *Daemon {
	t.Helper()
	cfgPath := ""
	if cfgBody != "" {
		cfgPath = writeConfig(t, stateDir, cfgBody)
	}
	d, err := New(stateDir, cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	d.SetLogf(func(string, ...any) {}) // keep test output quiet
	t.Cleanup(d.Shutdown)
	return d
}

// waitState polls a run until it reaches want (or fails the test).
func waitState(t *testing.T, d *Daemon, id, want string) RunInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second) //chrono:wallclock test deadline
	for {
		resp := d.Status(id)
		if resp.Run == nil {
			t.Fatalf("status %s: %s", id, resp.Error)
		}
		if resp.Run.State == want {
			return *resp.Run
		}
		switch resp.Run.State {
		case StateFailed, StateCancelled:
			if want != StateFailed && want != StateCancelled {
				t.Fatalf("run %s reached %s (error %q) while waiting for %s",
					id, resp.Run.State, resp.Run.Error, want)
			}
		}
		if time.Now().After(deadline) { //chrono:wallclock test deadline
			t.Fatalf("run %s stuck in %s waiting for %s", id, resp.Run.State, want)
		}
		time.Sleep(2 * time.Millisecond) //chrono:wallclock test polling
	}
}

// pace installs a keyed wall-clock pacing ticker so a run stays
// in-flight long enough to receive control requests. The key keeps the
// ticker checkpointable: resumes re-register it before Restore.
func pace(wallPerTick time.Duration) func(*engine.Engine) {
	return func(e *engine.Engine) {
		e.Clock().EveryKey("test/pace", 10*simclock.Millisecond, func(simclock.Time) {
			time.Sleep(wallPerTick) //chrono:wallclock test pacing
		})
	}
}

func setBuildHook(t *testing.T, h func(*engine.Engine)) {
	t.Helper()
	testBuildHook = h
	t.Cleanup(func() { testBuildHook = nil })
}

func TestSubmitRunsToCompletion(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), `{"stall_timeout_s": -1}`)
	resp := d.Submit(testSpec())
	if !resp.OK {
		t.Fatalf("submit: %s", resp.Error)
	}
	info := waitState(t, d, resp.ID, StateDone)
	if info.Policy != "TPP" {
		t.Fatalf("policy %q, want TPP", info.Policy)
	}
	st := d.Status(resp.ID)
	if !strings.Contains(st.Table, "TPP on pmbench") || !strings.Contains(st.Table, "Throughput") {
		t.Fatalf("final table missing or malformed:\n%s", st.Table)
	}
	// The run's snapshot is gone, its table and record remain.
	r, _ := d.get(resp.ID)
	if _, err := os.Stat(r.ckptPath()); !os.IsNotExist(err) {
		t.Fatalf("finished run should have no snapshot (err %v)", err)
	}
}

func TestSubmitValidatesSpec(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), "")
	for _, spec := range []RunSpec{
		{Policy: "NoSuchPolicy"},
		{Workload: "fortran"},
		{Faults: "alloc=banana"},
		{FastGB: -1},
	} {
		if resp := d.Submit(spec); resp.OK {
			t.Fatalf("spec %+v admitted, want rejection", spec)
		}
	}
	if len(d.List().Runs) != 0 {
		t.Fatal("rejected specs must not enter the registry")
	}
}

// A tier smaller than one page used to be admitted and then panic the
// driver goroutine in engine construction, killing the daemon. The shared
// validator now rejects it at submit and the daemon keeps serving.
func TestSubmitRejectsSubPageTier(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), "")
	resp := d.Submit(RunSpec{Workload: "pmbench", FastGB: 0.001})
	if resp.OK || !strings.Contains(resp.Error, "smaller than one page") {
		t.Fatalf("sub-page submit: %+v, want a one-page rejection", resp)
	}
	if ping := d.dispatch(Request{Op: OpPing}); !ping.OK {
		t.Fatalf("ping after rejected submit: %+v", ping)
	}
	if len(d.List().Runs) != 0 {
		t.Fatal("rejected spec entered the registry")
	}
}

// A record on disk whose spec cannot build (written before the validator
// caught it, or edited by hand) settles as failed at startup instead of
// being requeued into a crash on every restart.
func TestRecoveryFailsInvalidSpec(t *testing.T) {
	dir := t.TempDir()
	bad := RunSpec{Workload: "pmbench", FastGB: 0.001}.WithDefaults()
	for id, state := range map[string]string{"r0000": StateRunning, "r0001": StatePaused} {
		runDir := filepath.Join(dir, "runs", id)
		if err := os.MkdirAll(runDir, 0o755); err != nil {
			t.Fatal(err)
		}
		rec := runRecord{ID: id, Spec: bad, State: state, Policy: bad.Policy}
		if err := checkpoint.Save(filepath.Join(runDir, "record.json"), rec); err != nil {
			t.Fatal(err)
		}
	}
	d := newTestDaemon(t, dir, "")
	for _, id := range []string{"r0000", "r0001"} {
		info := waitState(t, d, id, StateFailed)
		if !strings.Contains(info.Error, "smaller than one page") {
			t.Fatalf("run %s failed with %q, want the validator's message", id, info.Error)
		}
		var rec runRecord
		if err := checkpoint.Load(filepath.Join(dir, "runs", id, "record.json"), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != StateFailed {
			t.Fatalf("run %s persisted as %s, want failed", id, rec.State)
		}
	}
	if ping := d.dispatch(Request{Op: OpPing}); !ping.OK {
		t.Fatalf("ping after recovery: %+v", ping)
	}
}

// Over-capacity submits are shed with an explicit rejection and a
// deterministic retry-after hint; admitted work is unaffected.
func TestAdmissionShedsExplicitly(t *testing.T) {
	gate := make(chan struct{})
	testStartGate = gate
	t.Cleanup(func() { testStartGate = nil })
	d := newTestDaemon(t, t.TempDir(),
		`{"max_active": 1, "max_queued": 1, "retry_hint_s": 3, "stall_timeout_s": -1}`)

	r1 := d.Submit(testSpec())
	r2 := d.Submit(testSpec())
	if !r1.OK || !r2.OK {
		t.Fatalf("first two submits must be admitted: %s / %s", r1.Error, r2.Error)
	}
	shed := d.Submit(testSpec())
	if shed.OK {
		t.Fatal("third submit must be shed")
	}
	if !strings.Contains(shed.Error, "at capacity") {
		t.Fatalf("shed error should be explicit, got %q", shed.Error)
	}
	if shed.RetryAfterS != 6 { // (1 queued + 1) * retry_hint_s
		t.Fatalf("retry hint %g, want 6", shed.RetryAfterS)
	}
	if len(d.List().Runs) != 2 {
		t.Fatalf("registry has %d runs, want 2 (shed run must not be recorded)", len(d.List().Runs))
	}

	close(gate) // release the drivers; both admitted runs finish
	waitState(t, d, r1.ID, StateDone)
	waitState(t, d, r2.ID, StateDone)
}

// A panicking run fails alone: the daemon keeps serving and the next
// run completes.
func TestPanicConfinement(t *testing.T) {
	setBuildHook(t, func(e *engine.Engine) {
		e.Clock().EveryKey("test/boom", 100*simclock.Millisecond, func(now simclock.Time) {
			if now >= 500*simclock.Millisecond {
				panic("injected policy explosion")
			}
		})
	})
	d := newTestDaemon(t, t.TempDir(), `{"stall_timeout_s": -1}`)
	resp := d.Submit(testSpec())
	info := waitState(t, d, resp.ID, StateFailed)
	if !strings.Contains(info.Error, "injected policy explosion") {
		t.Fatalf("failure should carry the panic value, got %q", info.Error)
	}

	testBuildHook = nil
	resp2 := d.Submit(testSpec())
	waitState(t, d, resp2.ID, StateDone)
}

// A run wedged inside a single event is abandoned: counted, logged, and
// reported with AbandonedGoroutine — and the daemon survives.
func TestHardStallAbandonsRun(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // unpark the leaked goroutine at test end
	var once sync.Once
	setBuildHook(t, func(e *engine.Engine) {
		e.Clock().EveryKey("test/wedge", 100*simclock.Millisecond, func(simclock.Time) {
			once.Do(func() { <-release })
		})
	})
	before := watchdog.Abandoned()
	d := newTestDaemon(t, t.TempDir(), `{"stall_timeout_s": 0.05}`)
	resp := d.Submit(testSpec())
	info := waitState(t, d, resp.ID, StateFailed)
	if !info.AbandonedGoroutine {
		t.Fatalf("hard stall must set AbandonedGoroutine: %+v", info)
	}
	if !strings.Contains(info.Error, "stalled hard") {
		t.Fatalf("error %q should name the hard stall", info.Error)
	}
	if got := watchdog.Abandoned(); got != before+1 {
		t.Fatalf("abandoned count %d, want %d", got, before+1)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	testStartGate = gate
	t.Cleanup(func() { testStartGate = nil })
	d := newTestDaemon(t, t.TempDir(), `{"max_active": 1, "stall_timeout_s": -1}`)

	r1 := d.Submit(testSpec())
	r2 := d.Submit(testSpec())
	if resp := d.Cancel(r2.ID); !resp.OK {
		t.Fatalf("cancel queued: %s", resp.Error)
	}
	if st := d.Status(r2.ID).Run.State; st != StateCancelled {
		t.Fatalf("queued run state %s after cancel", st)
	}
	if resp := d.Cancel(r1.ID); !resp.OK {
		t.Fatalf("cancel running: %s", resp.Error)
	}
	close(gate)
	waitState(t, d, r1.ID, StateCancelled)
	// Cancelling a finished run is an explicit error.
	if resp := d.Cancel(r2.ID); resp.OK {
		t.Fatal("cancelling a cancelled run must fail")
	}
}

// Pause parks a run mid-flight; resume continues it from its snapshot
// to a final table byte-identical to an uninterrupted run, under every
// policy (Linux-NB's state is its scan-walker positions).
func TestPauseResumeByteIdentical(t *testing.T) {
	for _, pol := range []string{"TPP", "Linux-NB"} {
		t.Run(pol, func(t *testing.T) {
			setBuildHook(t, pace(300*time.Microsecond))
			d := newTestDaemon(t, t.TempDir(), `{"stall_timeout_s": -1}`)
			spec := testSpec()
			spec.Policy = pol

			ref := d.Submit(spec)
			waitState(t, d, ref.ID, StateDone)
			refTable := d.Status(ref.ID).Table

			sub := d.Submit(spec)
			waitRunningWithProgress(t, d, sub.ID)
			if resp := d.Pause(sub.ID); !resp.OK {
				t.Fatalf("pause: %s", resp.Error)
			}
			info := waitState(t, d, sub.ID, StatePaused)
			if info.SimNowS <= 0 || info.SimNowS >= spec.DurationS {
				t.Fatalf("paused at %.3fs, want strictly mid-run", info.SimNowS)
			}
			if resp := d.Resume(sub.ID); !resp.OK {
				t.Fatalf("resume: %s", resp.Error)
			}
			waitState(t, d, sub.ID, StateDone)
			gotTable := d.Status(sub.ID).Table
			if gotTable == "" || gotTable != refTable {
				t.Fatalf("paused+resumed table differs from uninterrupted run:\n--- ref\n%s\n--- got\n%s", refTable, gotTable)
			}
		})
	}
}

// waitRunningWithProgress waits until the run is running with nonzero
// virtual progress, so a control request lands mid-flight.
func waitRunningWithProgress(t *testing.T, d *Daemon, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second) //chrono:wallclock test deadline
	for {
		info := d.Status(id).Run
		if info != nil && info.State == StateRunning && info.SimNowS > 0 {
			return
		}
		if time.Now().After(deadline) { //chrono:wallclock test deadline
			t.Fatalf("run %s never made visible progress", id)
		}
		time.Sleep(2 * time.Millisecond) //chrono:wallclock test polling
	}
}

// The live dump answers mid-run with a rendered metrics table.
func TestLiveDump(t *testing.T) {
	setBuildHook(t, pace(300*time.Microsecond))
	d := newTestDaemon(t, t.TempDir(), `{"stall_timeout_s": -1}`)
	sub := d.Submit(testSpec())
	waitRunningWithProgress(t, d, sub.ID)
	resp := d.Dump(sub.ID)
	if !resp.OK {
		t.Fatalf("dump: %s", resp.Error)
	}
	if !strings.Contains(resp.Table, "(live)") || !strings.Contains(resp.Table, "Throughput") {
		t.Fatalf("live dump table malformed:\n%s", resp.Table)
	}
	waitState(t, d, sub.ID, StateDone)
}

// A live policy swap applies at the next epoch boundary without
// dropping the run; the run finishes under the new policy and remains
// fully operable (status, table) afterwards.
func TestLiveReconfigureSwapsPolicy(t *testing.T) {
	setBuildHook(t, pace(300*time.Microsecond))
	d := newTestDaemon(t, t.TempDir(), `{"stall_timeout_s": -1}`)
	sub := d.Submit(testSpec())
	waitRunningWithProgress(t, d, sub.ID)

	resp := d.Reconfigure(sub.ID, "Memtis", map[string]string{"kernel/numa_tiering": "1"})
	if !resp.OK {
		t.Fatalf("reconfigure: %s", resp.Error)
	}
	info := waitState(t, d, sub.ID, StateDone)
	if info.Policy != "Memtis" || info.Swaps != 1 {
		t.Fatalf("after swap: policy %q swaps %d, want Memtis/1", info.Policy, info.Swaps)
	}
	table := d.Status(sub.ID).Table
	if !strings.Contains(table, "Memtis on pmbench") {
		t.Fatalf("final table should be titled under the new policy:\n%s", table)
	}
}

// A knob-only reconfiguration with an unknown sysctl key is rejected
// up-front with the "did you mean" list; the run never even pauses.
func TestReconfigureUnknownKeySuggests(t *testing.T) {
	setBuildHook(t, pace(300*time.Microsecond))
	d := newTestDaemon(t, t.TempDir(), `{"stall_timeout_s": -1}`)
	sub := d.Submit(testSpec())
	waitRunningWithProgress(t, d, sub.ID)

	resp := d.Reconfigure(sub.ID, "", map[string]string{"kernel/numa_teiring": "1"})
	if resp.OK {
		t.Fatal("unknown key must be rejected")
	}
	if !strings.Contains(resp.Error, "did you mean") || !strings.Contains(resp.Error, "kernel/numa_tiering") {
		t.Fatalf("rejection should suggest the real key, got %q", resp.Error)
	}
	info := waitState(t, d, sub.ID, StateDone)
	if info.Swaps != 0 || info.Policy != "TPP" {
		t.Fatalf("run must be untouched by the rejected swap: %+v", info)
	}
}

// A cross-policy swap whose sysctl stage fails validation rolls back:
// the run continues under the old policy and still completes.
func TestReconfigureRollsBackOnBadValue(t *testing.T) {
	setBuildHook(t, pace(300*time.Microsecond))
	d := newTestDaemon(t, t.TempDir(), `{"stall_timeout_s": -1}`)
	sub := d.Submit(testSpec())
	waitRunningWithProgress(t, d, sub.ID)

	// chrono/cit_threshold_ms exists only under Chrono and rejects
	// non-positive values, so this passes the up-front check and fails
	// after the restore — the full rollback path.
	resp := d.Reconfigure(sub.ID, "Chrono", map[string]string{"chrono/cit_threshold_ms": "-5"})
	if resp.OK {
		t.Fatal("invalid value must reject the swap")
	}
	if !strings.Contains(resp.Error, "reconfiguration rejected") {
		t.Fatalf("reply should say the swap was rejected, got %q", resp.Error)
	}
	info := waitState(t, d, sub.ID, StateDone)
	if info.Policy != "TPP" || info.Swaps != 0 {
		t.Fatalf("rollback must keep the old policy: %+v", info)
	}
}

// A knob-only reconfiguration to an out-of-range Chrono value is
// rejected (p_victim 1e6 would make each DCSC scan draw a million
// victims per page and wedge the run); the run keeps going and
// completes.
func TestReconfigureRejectsOutOfRangeKnob(t *testing.T) {
	setBuildHook(t, pace(300*time.Microsecond))
	d := newTestDaemon(t, t.TempDir(), `{"stall_timeout_s": -1}`)
	spec := testSpec()
	spec.Policy = "Chrono"
	sub := d.Submit(spec)
	waitRunningWithProgress(t, d, sub.ID)

	resp := d.Reconfigure(sub.ID, "", map[string]string{"chrono/p_victim": "1e6"})
	if resp.OK {
		t.Fatal("p_victim=1e6 must reject the reconfiguration")
	}
	if !strings.Contains(resp.Error, "chrono/p_victim") {
		t.Fatalf("reply should name the rejected key, got %q", resp.Error)
	}
	info := waitState(t, d, sub.ID, StateDone)
	if info.Policy != "Chrono" || info.Swaps != 0 {
		t.Fatalf("run must be untouched by the rejected write: %+v", info)
	}
}

// Crash recovery: a daemon killed mid-run (simulated by a drain plus a
// record rewritten to "running", exactly what kill -9 leaves behind)
// auto-resumes the run on restart and produces a final table
// byte-identical to an uninterrupted run. The CI daemon-smoke job does
// the same dance with a real kill -9.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	setBuildHook(t, pace(300*time.Microsecond))
	cfg := `{"checkpoint_interval_s": 0.01, "stall_timeout_s": -1}`

	refDir := t.TempDir()
	dRef := newTestDaemon(t, refDir, cfg)
	ref := dRef.Submit(testSpec())
	waitState(t, dRef, ref.ID, StateDone)
	refTable := dRef.Status(ref.ID).Table

	dir := t.TempDir()
	dA := newTestDaemon(t, dir, cfg)
	sub := dA.Submit(testSpec())
	rA, _ := dA.get(sub.ID)
	deadline := time.Now().Add(60 * time.Second) //chrono:wallclock test deadline
	for {
		if _, err := os.Stat(rA.ckptPath()); err == nil {
			break
		}
		if time.Now().After(deadline) { //chrono:wallclock test deadline
			t.Fatal("no checkpoint ever appeared")
		}
		time.Sleep(2 * time.Millisecond) //chrono:wallclock test polling
	}
	dA.Shutdown()
	if st := dA.Status(sub.ID).Run.State; st != StateInterrupted && st != StateDone {
		t.Fatalf("drained run state %s", st)
	}
	if dA.Status(sub.ID).Run.State == StateDone {
		t.Skip("run finished before the drain landed; pacing too fast for this host")
	}

	// kill -9 leaves the record saying "running"; fake exactly that.
	var rec runRecord
	if err := checkpoint.Load(rA.recordPath(), &rec); err != nil {
		t.Fatal(err)
	}
	rec.State = StateRunning
	if err := checkpoint.Save(rA.recordPath(), rec); err != nil {
		t.Fatal(err)
	}

	dB := newTestDaemon(t, dir, cfg)
	info := waitState(t, dB, sub.ID, StateDone)
	if info.ID != sub.ID {
		t.Fatalf("recovered id %s, want %s", info.ID, sub.ID)
	}
	gotTable := dB.Status(sub.ID).Table
	if gotTable == "" || !bytes.Equal([]byte(gotTable), []byte(refTable)) {
		t.Fatalf("resumed table differs from uninterrupted run:\n--- ref\n%s\n--- got\n%s", refTable, gotTable)
	}
}

// Reload follows validate-then-swap: a bad config file is rejected and
// the previous one stays in force; a good one applies immediately.
func TestReloadValidateThenSwap(t *testing.T) {
	dir := t.TempDir()
	cfgPath := writeConfig(t, dir, `{"max_active": 3, "stall_timeout_s": -1}`)
	d, err := New(dir, cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	d.SetLogf(func(string, ...any) {})
	t.Cleanup(d.Shutdown)

	if got := d.Config().MaxActive; got != 3 {
		t.Fatalf("max_active %d, want 3", got)
	}
	if err := os.WriteFile(cfgPath, []byte(`{"max_active": -1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if resp := d.Reload(); resp.OK {
		t.Fatal("invalid config must be rejected")
	}
	if got := d.Config().MaxActive; got != 3 {
		t.Fatalf("rejected reload must keep the old config, got max_active %d", got)
	}
	if err := os.WriteFile(cfgPath, []byte(`{"max_active": 5, "stall_timeout_s": -1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if resp := d.Reload(); !resp.OK {
		t.Fatalf("valid reload rejected: %s", resp.Error)
	}
	if got := d.Config().MaxActive; got != 5 {
		t.Fatalf("max_active %d after reload, want 5", got)
	}
}

// End-to-end over the unix socket: the client sees the same behavior
// the in-process API provides.
func TestServeOverSocket(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir, `{"stall_timeout_s": -1}`)
	sock := filepath.Join(dir, "chronod.sock")
	l, err := Listen(sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go d.Serve(l)

	c := &Client{Socket: sock}
	if resp, err := c.Do(Request{Op: OpPing}); err != nil || !resp.OK {
		t.Fatalf("ping: %+v, %v", resp, err)
	}
	spec := testSpec()
	sub, err := c.Do(Request{Op: OpSubmit, Spec: &spec})
	if err != nil || !sub.OK {
		t.Fatalf("submit: %+v, %v", sub, err)
	}
	waitState(t, d, sub.ID, StateDone)
	st, err := c.Do(Request{Op: OpStatus, ID: sub.ID})
	if err != nil || !st.OK || st.Run.State != StateDone || st.Table == "" {
		t.Fatalf("status over socket: %+v, %v", st, err)
	}
	list, err := c.Do(Request{Op: OpList})
	if err != nil || len(list.Runs) != 1 {
		t.Fatalf("list over socket: %+v, %v", list, err)
	}
	if resp, err := c.Do(Request{Op: "frobnicate"}); err != nil || resp.OK {
		t.Fatalf("unknown op must error: %+v, %v", resp, err)
	}
	// A live daemon must not be displaced by a second Listen.
	if _, err := Listen(sock); err == nil {
		t.Fatal("second Listen on a live socket must fail")
	}
}

// Queued runs survive a restart too: a daemon that drains with work
// still queued requeues it on the next start.
func TestQueuedRunsRecover(t *testing.T) {
	gate := make(chan struct{})
	testStartGate = gate
	t.Cleanup(func() { testStartGate = nil })
	dir := t.TempDir()
	d, err := New(dir, writeConfig(t, dir, `{"max_active": 1, "stall_timeout_s": -1}`))
	if err != nil {
		t.Fatal(err)
	}
	d.SetLogf(func(string, ...any) {})
	r1 := d.Submit(testSpec())
	r2 := d.Submit(testSpec())
	_ = r1
	// Drain with one run in flight (blocked at the gate) and one queued;
	// the closed gate lets recovered drivers through instantly.
	close(gate)
	d.Shutdown()

	d2 := newTestDaemon(t, dir, `{"max_active": 1, "stall_timeout_s": -1}`)
	waitState(t, d2, r2.ID, StateDone)
	if got := len(d2.List().Runs); got != 2 {
		t.Fatalf("registry after recovery has %d runs, want 2", got)
	}
}

// A state directory written before checkpoint version 4 still recovers.
// testdata/state-v2 and testdata/state-v3 hold version-2 and version-3
// files from such builds: r0000 is a done run of testSpec with its
// table, r0001 the same spec interrupted at 0.13 s virtual with its
// record saying "running" (what kill -9 leaves) and an engine.ckpt. The
// restarted daemon serves r0000 from its record and resumes r0001 from
// the snapshot, not from the start, to r0000's table.
func TestRecoversVersion2State(t *testing.T) {
	for _, fixture := range []string{"testdata/state-v2", "testdata/state-v3"} {
		t.Run(filepath.Base(fixture), func(t *testing.T) { recoverFixture(t, fixture) })
	}
}

func recoverFixture(t *testing.T, fixture string) {
	var firstTick atomic.Int64
	setBuildHook(t, func(e *engine.Engine) {
		// The key the fixture's runs were paced under.
		e.Clock().EveryKey("test/pace", 10*simclock.Millisecond, func(now simclock.Time) {
			firstTick.CompareAndSwap(0, int64(now))
		})
	})
	dir := t.TempDir()
	err := filepath.WalkDir(fixture, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, strings.TrimPrefix(path, fixture))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold r0001's driver until newTestDaemon has swapped the logger.
	gate := make(chan struct{})
	testStartGate = gate
	t.Cleanup(func() { testStartGate = nil })
	d := newTestDaemon(t, dir, `{"stall_timeout_s": -1}`)
	if got := len(d.List().Runs); got != 2 {
		t.Fatalf("registry after recovery has %d runs, want 2", got)
	}
	close(gate)
	waitState(t, d, "r0000", StateDone)
	want := d.Status("r0000").Table
	if want == "" {
		t.Fatal("done run r0000 lost its table")
	}
	waitState(t, d, "r0001", StateDone)
	if got := d.Status("r0001").Table; got != want {
		t.Fatalf("resumed r0001 table differs from r0000:\n--- r0000\n%s\n--- r0001\n%s", want, got)
	}
	if first := simclock.Time(firstTick.Load()); first <= 130*simclock.Millisecond {
		t.Fatalf("r0001's first tick after recovery came at %v: it replayed from the start", first)
	}
}
