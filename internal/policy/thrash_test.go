package policy

// Property tests for the anti-thrashing controller: the per-page backoff
// must be monotone in the strike count and capped (so a struck page is
// always eventually re-admitted — no permanent starvation), forgiveness
// must clear strikes after a quiet spell, and the AIMD governor must both
// clamp under thrash and recover in stable phases.

import (
	"testing"

	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// TestBackoffMonotoneCapped: BackoffFor is nondecreasing in strikes and
// never exceeds MaxBackoff, for the defaults and for edge-case configs.
func TestBackoffMonotoneCapped(t *testing.T) {
	def := ThrashConfig{}
	def.setDefaults()
	configs := map[string]ThrashConfig{
		"defaults":   def,
		"tpp-preset": {Base: 15 * simclock.Second, MaxBackoff: 60 * simclock.Second},
		"tight":      {Base: 7 * simclock.Second, MaxBackoff: 7 * simclock.Second},
		"one-ns":     {Base: 1, MaxBackoff: 240 * simclock.Second},
	}
	for name, cfg := range configs {
		if cfg.BackoffFor(0) != 0 {
			t.Errorf("%s: zero strikes must mean zero backoff", name)
		}
		prev := simclock.Duration(0)
		for s := 1; s <= 255; s++ {
			b := cfg.BackoffFor(uint8(s))
			if b < prev {
				t.Fatalf("%s: BackoffFor(%d)=%v < BackoffFor(%d)=%v — not monotone", name, s, b, s-1, prev)
			}
			if b > cfg.MaxBackoff {
				t.Fatalf("%s: BackoffFor(%d)=%v exceeds cap %v — permanent starvation possible", name, s, b, cfg.MaxBackoff)
			}
			prev = b
		}
		if cfg.BackoffFor(255) != cfg.MaxBackoff {
			t.Errorf("%s: saturated strikes should sit at the cap, got %v", name, cfg.BackoffFor(255))
		}
	}
}

// guardTestKernel is the minimal kernel the guard touches in AdmitPromotion() and
// OnMigrated(): a clock and a page table. Everything else panics via the
// nil embedded interface, which is the point — the guard must stay
// passive.
type guardTestKernel struct {
	Kernel
	clock *simclock.Clock
	pages []*vm.Page
}

func (k *guardTestKernel) Clock() *simclock.Clock { return k.clock }
func (k *guardTestKernel) Pages() []*vm.Page      { return k.pages }

// newTestGuard wires a guard around the no-op policy with a manual clock,
// bypassing Attach (which needs a full kernel) but reproducing its setup.
func newTestGuard(cfg ThrashConfig, npages int) (*guarded, *guardTestKernel, []*vm.Page) {
	pages := make([]*vm.Page, npages)
	for i := range pages {
		pages[i] = &vm.Page{ID: int64(i), Size: 1, Tier: mem.SlowTier}
	}
	k := &guardTestKernel{clock: simclock.New(), pages: pages}
	cfg.setDefaults()
	g := &guarded{inner: nopPolicy{}, cfg: cfg, k: k, allowMax: 1 << 30, allow: 1 << 30}
	return g, k, pages
}

// nopPolicy satisfies Policy with no behaviour.
type nopPolicy struct{ Base }

func (nopPolicy) Name() string                    { return "nop" }
func (nopPolicy) Attach(Kernel)                   {}
func (nopPolicy) OnFault(*vm.Page, simclock.Time) {}
func (nopPolicy) CheckpointState() (any, error)   { return nil, nil }
func (nopPolicy) RestoreCheckpoint([]byte) error  { return nil }

// TestGuardDeniesThenReadmits: a ping-ponging page accumulates strikes and
// is denied while its backoff runs, but once MaxBackoff has elapsed it is
// always admitted again — regardless of how many strikes it holds.
func TestGuardDeniesThenReadmits(t *testing.T) {
	cfg := ThrashConfig{
		Window:     10 * simclock.Second,
		Base:       5 * simclock.Second,
		MaxBackoff: 40 * simclock.Second,
		MinAllow:   1 << 30, // governor out of the picture: backoff only
	}
	g, k, pages := newTestGuard(cfg, 1)
	pg := pages[0]

	// Drive many 1 s promote→demote round trips (well inside Window) and
	// verify the page is denied right after each demotion once struck, but
	// re-admitted after MaxBackoff at the latest — even as strikes saturate.
	now := simclock.Time(0)
	for cycle := 0; cycle < 12; cycle++ {
		k.clock.AdvanceTo(now)
		if cycle == 0 && !g.AdmitPromotion(pg) {
			t.Fatal("fresh page denied")
		}
		g.OnMigrated(pg, mem.SlowTier, mem.FastTier)
		now += simclock.Second
		k.clock.AdvanceTo(now)
		g.OnMigrated(pg, mem.FastTier, mem.SlowTier)

		if cycle >= 1 { // multiple strikes by now
			if g.AdmitPromotion(pg) {
				t.Fatalf("cycle %d: struck page admitted immediately after bounce", cycle)
			}
		}
		now += cfg.MaxBackoff
		k.clock.AdvanceTo(now)
		if !g.AdmitPromotion(pg) {
			t.Fatalf("cycle %d: page still denied %v after demotion — starved", cycle, cfg.MaxBackoff)
		}
	}
	if g.strikes[0] == 0 {
		t.Fatal("no strikes recorded for a ping-ponging page")
	}
	if g.denied == 0 {
		t.Fatal("denial counter never moved")
	}
}

// TestGuardForgivesQuietPages: strikes and backoff are cleared once the
// page's transition gaps grow past quietAfter — a phase change is not
// punished like a bounce.
func TestGuardForgivesQuietPages(t *testing.T) {
	cfg := ThrashConfig{
		Window:   10 * simclock.Second,
		MinAllow: 1 << 30,
	}
	g, k, pages := newTestGuard(cfg, 1)
	pg := pages[0]

	// One bounce: promote at 1 s, demote at 2 s. (Time zero is the
	// "never" sentinel in the detector columns, so start past it.)
	k.clock.AdvanceTo(1 * simclock.Second)
	g.OnMigrated(pg, mem.SlowTier, mem.FastTier)
	k.clock.AdvanceTo(2 * simclock.Second)
	g.OnMigrated(pg, mem.FastTier, mem.SlowTier)
	if g.strikes[0] == 0 {
		t.Fatal("bounce not struck")
	}

	// The page then stays slow for > quietAfter before re-heating: the
	// promotion forgives it.
	repromote := 2*simclock.Second + quietAfter + 28*simclock.Second
	k.clock.AdvanceTo(repromote)
	g.OnMigrated(pg, mem.SlowTier, mem.FastTier)
	if g.strikes[0] != 0 || g.backoffUntil[0] != 0 {
		t.Fatalf("quiet page not forgiven: strikes=%d backoffUntil=%v", g.strikes[0], g.backoffUntil[0])
	}

	// And a long fast residency before the next demotion also forgives.
	g.strike(0)
	k.clock.AdvanceTo(repromote + quietAfter + 30*simclock.Second)
	g.OnMigrated(pg, mem.FastTier, mem.SlowTier)
	if g.strikes[0] != 0 {
		t.Fatalf("long-resident page not forgiven: strikes=%d", g.strikes[0])
	}
}

// TestGovernorClampsAndRecovers: sustained bouncing halves the budget down
// to MinAllow; clean windows then recover it additively to the ceiling.
func TestGovernorClampsAndRecovers(t *testing.T) {
	cfg := ThrashConfig{
		Window:   10 * simclock.Second,
		MinAllow: 4,
	}
	g, k, pages := newTestGuard(cfg, 64)
	g.allowMax = 64
	g.allow = 64

	// Thrash phase: every window promotes 8 pages that all bounce back.
	now := simclock.Time(0)
	for win := 0; win < 10; win++ {
		for i := 0; i < 8; i++ {
			pg := pages[(win*8+i)%64]
			g.OnMigrated(pg, mem.SlowTier, mem.FastTier)
			g.OnMigrated(pg, mem.FastTier, mem.SlowTier)
		}
		now += governorPeriod
		k.clock.AdvanceTo(now)
		g.advance(now)
	}
	if g.allow != cfg.MinAllow {
		t.Fatalf("allow=%d after sustained thrash, want floor %d", g.allow, cfg.MinAllow)
	}

	// Stable phase: no moves at all. The budget must climb back, by
	// MinAllow per window.
	now += 20 * governorPeriod
	k.clock.AdvanceTo(now)
	g.advance(now)
	if g.allow != g.allowMax {
		t.Fatalf("allow=%d after quiet stretch, want ceiling %d", g.allow, g.allowMax)
	}
}

// TestGuardRestoreRejectsUnequalColumns: the per-page detector columns
// are indexed together, so a checkpoint whose columns disagree in length
// must fail to restore instead of panicking on the next observed move.
// Equal columns restore as written, nil staying nil.
func TestGuardRestoreRejectsUnequalColumns(t *testing.T) {
	bad := []string{
		`{"last_promote":[1,2,3],"last_demote":[1,2,3],"strikes":null,"backoff_until":[0,0,0]}`,
		`{"last_promote":[1],"last_demote":[1,2,3],"strikes":"AAAA","backoff_until":[0,0,0]}`,
		`{"last_promote":[1,2,3],"last_demote":[1,2,3],"strikes":"AAAA","backoff_until":[0,0]}`,
	}
	for i, data := range bad {
		g, _, _ := newTestGuard(ThrashConfig{}, 4)
		if err := g.RestoreCheckpoint([]byte(data)); err == nil {
			t.Errorf("case %d: unequal columns restored without error", i)
		}
	}

	g, _, pages := newTestGuard(ThrashConfig{}, 4)
	if err := g.RestoreCheckpoint([]byte(`{"last_promote":null,"last_demote":null,"strikes":null,"backoff_until":null}`)); err != nil {
		t.Fatalf("empty columns: %v", err)
	}
	if g.lastPromote != nil || g.strikes != nil {
		t.Fatal("restore grew nil columns eagerly")
	}
	g.OnMigrated(pages[1], mem.SlowTier, mem.FastTier) // lazy grow, no panic

	g, _, pages = newTestGuard(ThrashConfig{}, 4)
	if err := g.RestoreCheckpoint([]byte(`{"last_promote":[0,0,0],"last_demote":[0,0,0],"strikes":"AAAA","backoff_until":[0,0,0]}`)); err != nil {
		t.Fatalf("equal columns: %v", err)
	}
	g.OnMigrated(pages[3], mem.SlowTier, mem.FastTier)
	if len(g.strikes) != 4 || len(g.lastDemote) != 4 {
		t.Fatalf("columns not grown together: strikes %d, last_demote %d", len(g.strikes), len(g.lastDemote))
	}
}
