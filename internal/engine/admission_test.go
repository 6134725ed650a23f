package engine

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"chrono/internal/faultinject"
	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// newAdmissionEngine maps 2000 pages (fast tier full, the rest slow)
// under pol and runs one second to prime the token bucket.
func newAdmissionEngine(t *testing.T, pol policy.Policy) *Engine {
	t.Helper()
	e := newTestEngine(13)
	addUniformProc(e, 1, 2000, 1)
	if err := e.MapAll(BasePages); err != nil {
		t.Fatal(err)
	}
	e.AttachPolicy(pol)
	e.Run(simclock.Second)
	return e
}

// firstIn returns the first resident page in tier.
func firstIn(t *testing.T, e *Engine, tier mem.TierID) *vm.Page {
	t.Helper()
	for _, pg := range e.Pages() {
		if pg != nil && pg.Tier == tier && !pg.Flags.Has(vm.FlagSwapped) {
			return pg
		}
	}
	t.Fatalf("no page in tier %d", tier)
	return nil
}

// guardDenied reads the thrash guard's denial counter from its
// checkpoint state.
func guardDenied(t *testing.T, pol policy.Policy) int64 {
	t.Helper()
	st, err := pol.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Denied int64 `json:"denied"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return v.Denied
}

// bounce promotes then immediately demotes pg, which strikes it in the
// thrash guard and arms its promotion backoff.
func bounce(t *testing.T, e *Engine, pg *vm.Page) {
	t.Helper()
	if r := e.TryPromote(pg); r != policy.MigrateOK {
		t.Fatalf("promote: %v", r)
	}
	if r := e.TryDemote(pg); r != policy.MigrateOK {
		t.Fatalf("demote: %v", r)
	}
}

// TestMigrateVerdicts produces each admission verdict at its site.
func TestMigrateVerdicts(t *testing.T) {
	t.Run("NoCapacity", func(t *testing.T) {
		e := newAdmissionEngine(t, &recordingPolicy{})
		e.Node().Alloc(mem.SlowTier, e.Node().Free(mem.SlowTier))
		if r := e.TryDemote(firstIn(t, e, mem.FastTier)); r != policy.MigrateNoCapacity {
			t.Fatalf("demote into a full slow tier: %v, want no-capacity", r)
		}
	})
	t.Run("Throttled", func(t *testing.T) {
		e := newAdmissionEngine(t, &recordingPolicy{})
		if r := e.TryDemote(firstIn(t, e, mem.FastTier)); r != policy.MigrateOK {
			t.Fatalf("setup demote: %v", r) // frees a fast frame: no reclaim below
		}
		e.migTokens = 0
		slow, fast := firstIn(t, e, mem.SlowTier), firstIn(t, e, mem.FastTier)
		if r := e.TryPromote(slow); r != policy.MigrateThrottled || slow.Tier != mem.SlowTier {
			t.Fatalf("promote on a dry bucket: %v (tier %d), want throttled", r, slow.Tier)
		}
		if r := e.TryDemote(fast); r != policy.MigrateThrottled || fast.Tier != mem.FastTier {
			t.Fatalf("demote on a dry bucket: %v (tier %d), want throttled", r, fast.Tier)
		}
		if r := e.PromoteShadowed(slow); r != policy.MigrateThrottled {
			t.Fatalf("shadowed promote on a dry bucket: %v, want throttled", r)
		}
	})
	t.Run("Denied", func(t *testing.T) {
		pol := policy.WithThrashGuard(&recordingPolicy{}, policy.ThrashConfig{})
		e := newAdmissionEngine(t, pol)
		pg := firstIn(t, e, mem.SlowTier)
		bounce(t, e, pg)
		before := guardDenied(t, pol)
		if r := e.TryPromote(pg); r != policy.MigrateDenied || pg.Tier != mem.SlowTier {
			t.Fatalf("promote inside the guard backoff: %v (tier %d), want denied", r, pg.Tier)
		}
		if r := e.PromoteShadowed(pg); r != policy.MigrateDenied || pg.Tier != mem.SlowTier {
			t.Fatalf("shadowed promote inside the guard backoff: %v (tier %d), want denied", r, pg.Tier)
		}
		if got := guardDenied(t, pol); got != before+2 {
			t.Fatalf("guard denied counter %d -> %d, want +2", before, got)
		}
	})
	t.Run("OK", func(t *testing.T) {
		// An already-fast page short-circuits before admission: even a
		// guard that would deny it is not consulted.
		pol := policy.WithThrashGuard(&recordingPolicy{}, policy.ThrashConfig{})
		e := newAdmissionEngine(t, pol)
		pg := firstIn(t, e, mem.SlowTier)
		bounce(t, e, pg)
		if r := e.TryPromote(pg); r != policy.MigrateDenied {
			t.Fatalf("setup: %v, want denied", r)
		}
		fast := firstIn(t, e, mem.FastTier)
		before := guardDenied(t, pol)
		if r := e.TryPromote(fast); r != policy.MigrateOK {
			t.Fatalf("promote of a fast page: %v, want ok", r)
		}
		if got := guardDenied(t, pol); got != before {
			t.Fatalf("admission consulted for an already-fast page (denied %d -> %d)", before, got)
		}
	})
}

// TestAdmissionOncePerSwappedShadowedPromote: a swapped page promoted
// through PromoteShadowed delegates to TryPromote's swap-in, and the
// admission hook still runs exactly once for the attempt.
func TestAdmissionOncePerSwappedShadowedPromote(t *testing.T) {
	pol := policy.WithThrashGuard(&recordingPolicy{}, policy.ThrashConfig{})
	e := newAdmissionEngine(t, pol)
	pg := firstIn(t, e, mem.SlowTier)
	bounce(t, e, pg)
	if !e.SwapOut(pg) {
		t.Fatal("SwapOut failed")
	}
	before := guardDenied(t, pol)
	if r := e.PromoteShadowed(pg); r != policy.MigrateDenied {
		t.Fatalf("shadowed swap-in inside the guard backoff: %v, want denied", r)
	}
	if got := guardDenied(t, pol); got != before+1 {
		t.Fatalf("guard denied counter %d -> %d, want exactly +1", before, got)
	}
	if !pg.Flags.Has(vm.FlagSwapped) {
		t.Fatal("denied swap-in brought the page back")
	}
}

// TestMigrationsDry: the query is true only when a throttled TryDemote
// is provably a no-op — no injector draw, no shadow remap — and then a
// TryDemote changes no engine state at all.
func TestMigrationsDry(t *testing.T) {
	drain := func(e *Engine) { e.migTokens = float64(e.node.PageSizeBytes) - 1 }
	t.Run("Injector", func(t *testing.T) {
		e := New(Config{Seed: 13, FastGB: 4, SlowGB: 12, Faults: faultinject.Aggressive()})
		addUniformProc(e, 1, 2000, 1)
		if err := e.MapAll(BasePages); err != nil {
			t.Fatal(err)
		}
		e.AttachPolicy(&recordingPolicy{})
		e.Run(simclock.Second)
		drain(e)
		if e.MigrationsDry() {
			t.Fatal("dry with a fault injector attached: its draws precede the bucket check")
		}
	})
	t.Run("Shadow", func(t *testing.T) {
		e := newAdmissionEngine(t, &recordingPolicy{})
		if r := e.TryDemote(firstIn(t, e, mem.FastTier)); r != policy.MigrateOK {
			t.Fatalf("setup demote: %v", r)
		}
		if r := e.PromoteShadowed(firstIn(t, e, mem.SlowTier)); r != policy.MigrateOK {
			t.Fatalf("setup shadowed promote: %v", r)
		}
		drain(e)
		if e.MigrationsDry() {
			t.Fatal("dry with a live shadow: its clean demotion needs no tokens")
		}
	})
	t.Run("Dry", func(t *testing.T) {
		e := newAdmissionEngine(t, &recordingPolicy{})
		e.migTokens = float64(e.node.PageSizeBytes)
		if e.MigrationsDry() {
			t.Fatal("dry with one base page's bytes in the bucket")
		}
		drain(e)
		if !e.MigrationsDry() {
			t.Fatal("not dry below one base page's bytes, no injector, no shadows")
		}
		before, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		tokens := e.migTokens
		pg := firstIn(t, e, mem.FastTier)
		if r := e.TryDemote(pg); r != policy.MigrateThrottled || pg.Tier != mem.FastTier {
			t.Fatalf("demote on a dry bucket: %v (tier %d), want throttled", r, pg.Tier)
		}
		after, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if e.migTokens != tokens {
			t.Fatalf("tokens %v -> %v", tokens, e.migTokens)
		}
		if !reflect.DeepEqual(before.Metrics, after.Metrics) {
			t.Fatalf("metrics moved:\n%+v\n%+v", before.Metrics, after.Metrics)
		}
		b, err := json.Marshal(before)
		if err != nil {
			t.Fatal(err)
		}
		a, err := json.Marshal(after)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatal("a dry TryDemote changed the engine snapshot")
		}
	})
}

// TestReclaimShadowsStaleEntryOrder pins the shadow FIFO's reclaim order
// for a page shadowed, demoted onto its shadow and shadowed again: its
// first, stale entry passes shadowActive again, so capacity reclaim
// drops that page at its old position, ahead of a shadow cut before its
// second one. Compacting stale entries out of the FIFO would drop the
// other shadow first instead, which changes Nomad's results.
func TestReclaimShadowsStaleEntryOrder(t *testing.T) {
	e := newAdmissionEngine(t, &recordingPolicy{})
	a := firstIn(t, e, mem.FastTier)
	if r := e.TryDemote(a); r != policy.MigrateOK {
		t.Fatalf("setup demote a: %v", r)
	}
	b := firstIn(t, e, mem.FastTier)
	if r := e.TryDemote(b); r != policy.MigrateOK {
		t.Fatalf("setup demote b: %v", r)
	}
	for i, step := range []func() policy.MigrateResult{
		func() policy.MigrateResult { return e.PromoteShadowed(a) },
		func() policy.MigrateResult { return e.PromoteShadowed(b) },
		func() policy.MigrateResult { return e.TryDemote(a) }, // clean shadow remap
		func() policy.MigrateResult { return e.PromoteShadowed(a) },
	} {
		if r := step(); r != policy.MigrateOK {
			t.Fatalf("step %d: %v", i, r)
		}
	}
	if want := []int64{a.ID, b.ID, a.ID}; !slices.Equal(e.shadowFIFO, want) {
		t.Fatalf("FIFO %v, want %v", e.shadowFIFO, want)
	}
	reclaims := e.M.ShadowReclaims
	e.reclaimShadows(e.node.Free(mem.SlowTier) + 1) // room for one more page
	if e.M.ShadowReclaims != reclaims+1 || e.shadowActive(a.ID) || !e.shadowActive(b.ID) {
		t.Fatalf("reclaimed %v shadows, a live %v, b live %v: want a's dropped at its first entry",
			e.M.ShadowReclaims-reclaims, e.shadowActive(a.ID), e.shadowActive(b.ID))
	}
	if want := []int64{b.ID, a.ID}; !slices.Equal(e.shadowFIFO, want) {
		t.Fatalf("FIFO after reclaim %v, want %v", e.shadowFIFO, want)
	}
}

// TestRestoreRejectsUnqueuedShadow: MigrationsDry reads an empty shadow
// FIFO as "no live shadow", so a checkpoint holding a shadow without its
// FIFO entry is a restore error.
func TestRestoreRejectsUnqueuedShadow(t *testing.T) {
	e := newAdmissionEngine(t, &recordingPolicy{})
	if r := e.TryDemote(firstIn(t, e, mem.FastTier)); r != policy.MigrateOK {
		t.Fatalf("setup demote: %v", r)
	}
	if r := e.PromoteShadowed(firstIn(t, e, mem.SlowTier)); r != policy.MigrateOK {
		t.Fatalf("setup shadowed promote: %v", r)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Engine {
		f := newTestEngine(13)
		addUniformProc(f, 1, 2000, 1)
		if err := f.MapAll(BasePages); err != nil {
			t.Fatal(err)
		}
		f.AttachPolicy(&recordingPolicy{})
		return f
	}
	if err := fresh().Restore(snap); err != nil {
		t.Fatalf("restore of the live snapshot: %v", err)
	}
	snap.ShadowFIFO = nil
	if err := fresh().Restore(snap); err == nil {
		t.Fatal("restore of a shadow without its FIFO entry succeeded")
	}
}
