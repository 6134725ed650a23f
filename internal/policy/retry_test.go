package policy

import (
	"testing"

	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// scriptedMigrator returns a scripted sequence of results and records
// attempt counts.
type scriptedMigrator struct {
	clock    *simclock.Clock
	promote  []MigrateResult
	demote   []MigrateResult
	attempts int
}

func (m *scriptedMigrator) next(script []MigrateResult) MigrateResult {
	i := m.attempts
	m.attempts++
	if i >= len(script) {
		return MigrateOK
	}
	return script[i]
}

func (m *scriptedMigrator) TryPromote(pg *vm.Page) MigrateResult {
	r := m.next(m.promote)
	if r == MigrateOK {
		pg.Tier = mem.FastTier
	}
	return r
}

func (m *scriptedMigrator) TryDemote(pg *vm.Page) MigrateResult {
	r := m.next(m.demote)
	if r == MigrateOK {
		pg.Tier = mem.SlowTier
	}
	return r
}

func (m *scriptedMigrator) Clock() *simclock.Clock { return m.clock }

func TestRetryPromoteRetriesTransientOnly(t *testing.T) {
	cases := []struct {
		script       []MigrateResult
		attempts     int
		want         MigrateResult
		wantAttempts int
	}{
		{[]MigrateResult{MigrateOK}, 3, MigrateOK, 1},
		{[]MigrateResult{MigrateTransient, MigrateOK}, 3, MigrateOK, 2},
		{[]MigrateResult{MigrateTransient, MigrateTransient, MigrateTransient}, 3, MigrateTransient, 3},
		// Capacity exhaustion returns immediately: no retry can help.
		{[]MigrateResult{MigrateNoCapacity, MigrateOK}, 3, MigrateNoCapacity, 1},
		{[]MigrateResult{MigrateTransient, MigrateNoCapacity, MigrateOK}, 3, MigrateNoCapacity, 2},
		// A dry token bucket and an admission denial are returned, not retried.
		{[]MigrateResult{MigrateThrottled, MigrateOK}, 3, MigrateThrottled, 1},
		{[]MigrateResult{MigrateDenied, MigrateOK}, 3, MigrateDenied, 1},
	}
	for i, c := range cases {
		m := &scriptedMigrator{promote: c.script}
		pg := &vm.Page{Tier: mem.SlowTier, Size: 1}
		got := RetryPromote(m, pg, c.attempts)
		if got != c.want || m.attempts != c.wantAttempts {
			t.Errorf("case %d: got %v after %d attempts, want %v after %d",
				i, got, m.attempts, c.want, c.wantAttempts)
		}
	}
}

func TestRetryDemote(t *testing.T) {
	m := &scriptedMigrator{demote: []MigrateResult{MigrateTransient, MigrateOK}}
	pg := &vm.Page{Tier: mem.FastTier, Size: 1}
	if got := RetryDemote(m, pg, 2); got != MigrateOK {
		t.Fatalf("RetryDemote = %v, want ok", got)
	}
	if pg.Tier != mem.SlowTier {
		t.Fatal("page not demoted")
	}
}

func TestPromoteBackoffRetriesInSimTime(t *testing.T) {
	clock := simclock.New()
	// Two transient failures, then success — with base 50 ms the retries
	// land at 50 ms and 150 ms.
	m := &scriptedMigrator{
		clock:   clock,
		promote: []MigrateResult{MigrateTransient, MigrateTransient, MigrateOK},
	}
	pg := &vm.Page{Tier: mem.SlowTier, Size: 1}
	if RetryPromote(m, pg, 1) != MigrateTransient {
		t.Fatal("scripted first attempt should be transient")
	}
	PromoteBackoff(m, pg, 50*simclock.Millisecond, 3)
	clock.RunUntil(simclock.Time(40 * simclock.Millisecond))
	if pg.Tier != mem.SlowTier {
		t.Fatal("retry fired before the backoff delay")
	}
	clock.RunUntil(simclock.Time(simclock.Second))
	if pg.Tier != mem.FastTier {
		t.Fatalf("page not promoted after backoff retries (attempts=%d)", m.attempts)
	}
	if m.attempts != 3 {
		t.Fatalf("attempts = %d, want 3", m.attempts)
	}
}

func TestPromoteBackoffAbandonsMigratedPage(t *testing.T) {
	clock := simclock.New()
	m := &scriptedMigrator{clock: clock, promote: []MigrateResult{MigrateOK}}
	pg := &vm.Page{Tier: mem.SlowTier, Size: 1}
	PromoteBackoff(m, pg, 50*simclock.Millisecond, 3)
	// The page migrates through another path before the retry fires.
	pg.Tier = mem.FastTier
	clock.RunUntil(simclock.Time(simclock.Second))
	if m.attempts != 0 {
		t.Fatalf("backoff retried an already-migrated page (%d attempts)", m.attempts)
	}
}

func TestPromoteBackoffBounded(t *testing.T) {
	clock := simclock.New()
	// Always transient: the backoff chain must stop after its attempts.
	script := make([]MigrateResult, 64)
	for i := range script {
		script[i] = MigrateTransient
	}
	m := &scriptedMigrator{clock: clock, promote: script}
	pg := &vm.Page{Tier: mem.SlowTier, Size: 1}
	PromoteBackoff(m, pg, 50*simclock.Millisecond, 3)
	clock.RunUntil(simclock.Time(10 * simclock.Second))
	if m.attempts != 3 {
		t.Fatalf("attempts = %d, want exactly 3", m.attempts)
	}
}

func TestMigrateResultString(t *testing.T) {
	for _, c := range []struct {
		r    MigrateResult
		want string
	}{
		{MigrateOK, "ok"},
		{MigrateNoCapacity, "no-capacity"},
		{MigrateTransient, "transient"},
		{MigrateThrottled, "throttled"},
		{MigrateDenied, "denied"},
		{MigrateResult(99), "unknown"},
	} {
		if got := c.r.String(); got != c.want {
			t.Errorf("MigrateResult(%d).String() = %q, want %q", int(c.r), got, c.want)
		}
	}
}
