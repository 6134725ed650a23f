package policy

// Anti-thrashing controller in the spirit of Jenga/Nomad's thrashing
// analyses: memory tiering under an adversarial working set (capacity
// oscillation, hot-set rotation) degenerates into promote→demote
// ping-pong that burns migration bandwidth without improving placement.
// The guard composes onto ANY policy — WithThrashGuard(tpp.New(), ...)
// — as the wrapper policy's Admitter hook: the engine consults it on
// every promotion attempt, so every baseline can run ±thrash-guard
// without source changes. The inner policy sees the real kernel.
//
// Two mechanisms, both deterministic and checkpointable:
//
//   - Per-page ping-pong detector: a promote→demote→promote cycle with
//     either leg shorter than Window — a demotion within Window of the
//     page's promotion (wasted promotion), or a re-promotion within
//     Window of its demotion (wasted demotion) — earns a strike. Each
//     demotion of a struck page arms an exponentially growing backoff
//     (Base << strikes, capped at MaxBackoff — monotone, and finite, so
//     a genuinely hot page is always eventually re-admitted) during
//     which its promotion is denied. A page whose transition gaps grow
//     past quietAfter has its strikes forgiven.
//   - Global AIMD migration governor: promotions per governorPeriod are
//     budgeted; when the fraction of promotions bouncing back within
//     Window exceeds bounceFrac the budget halves (down to MinAllow),
//     otherwise it recovers additively by MinAllow. This caps
//     system-wide migration bandwidth during pathological phases while
//     converging back to unconstrained behaviour in stable ones.
//
// The guard is passive: it schedules no clock events of its own and
// draws no randomness, observing moves through OnMigrated (which the
// kernel invokes for kswapd/reclaim demotions too) and advancing the
// governor window as a pure function of the current time. Denials are
// reported to the inner policy as MigrateDenied; policies that test only
// for MigrateOK or MigrateTransient treat them like any other refusal.

import (
	"encoding/json"
	"fmt"

	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// ThrashConfig tunes the guard: the values GuardPresetFor varies per
// policy. Zero values take defaults; the guard's other parameters are the
// constants below.
type ThrashConfig struct {
	// Window is the ping-pong window: a demotion within Window of the
	// page's promotion counts as a bounce (default 120 s — fault-driven
	// policies react on scan-period timescales, so genuine ping-pong round
	// trips land tens of seconds after the promotion, not milliseconds).
	Window simclock.Duration
	// Base is the first per-page backoff after a bounce; each further
	// strike doubles it (default 30 s).
	Base simclock.Duration
	// MaxBackoff caps the per-page backoff (default 240 s). The cap is
	// what guarantees no permanent starvation.
	MaxBackoff simclock.Duration
	// MinAllow floors the promotion budget, in base pages per window
	// (default 64): even a fully thrashing system keeps a trickle so the
	// guard can observe whether the phase ended. It is also the additive
	// budget recovery per clean window.
	MinAllow int64
}

// The guard's fixed parameters.
const (
	quietAfter     = 300 * simclock.Second // a page that stayed in one tier this long before moving is forgiven
	governorPeriod = 5 * simclock.Second   // the AIMD accounting window
	bounceFrac     = 0.25                  // bounce ratio above which the governor halves the budget
)

func (c *ThrashConfig) setDefaults() {
	if c.Window == 0 {
		c.Window = 120 * simclock.Second
	}
	if c.Base == 0 {
		c.Base = 30 * simclock.Second
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 240 * simclock.Second
	}
	if c.MinAllow == 0 {
		c.MinAllow = 64
	}
}

// BackoffFor returns the per-page backoff after the given strike count:
// Base << (strikes-1), capped at MaxBackoff. Exported for the
// monotonicity/no-starvation property tests.
func (c ThrashConfig) BackoffFor(strikes uint8) simclock.Duration {
	if strikes == 0 {
		return 0
	}
	shift := uint(strikes - 1)
	if shift > 20 { // Base<<21 already exceeds any sane cap
		return c.MaxBackoff
	}
	d := c.Base << shift
	if d <= 0 || d > c.MaxBackoff {
		return c.MaxBackoff
	}
	return d
}

// WithThrashGuard wraps inner with the anti-thrashing controller. The
// wrapper's checkpoint state nests the inner policy's.
func WithThrashGuard(inner Policy, cfg ThrashConfig) Policy {
	return &guarded{inner: inner, cfg: cfg}
}

// guarded is the thrash-guard wrapper policy.
//
//chrono:statesync guardState
type guarded struct {
	inner    Policy       //chrono:state Inner
	cfg      ThrashConfig //chrono:rebuilt configuration, finalized in Attach
	k        Kernel       //chrono:rebuilt kernel handle, re-bound by Attach
	allowMax int64        //chrono:rebuilt budget ceiling, derived from fast capacity

	//chrono:state Allow
	allow int64 // current promotion budget (base pages per window)
	//chrono:state Used
	used int64 // budget consumed in the current window
	//chrono:state WinStart
	winStart simclock.Time // start of the current governor window
	//chrono:state WinPromotes
	winPromotes int64 // promotions observed this window
	//chrono:state WinBounces
	winBounces int64 // promote→demote bounces observed this window
	//chrono:state Denied
	denied int64 // total promotions denied (backoff + budget)
	//chrono:state LastPromote
	lastPromote []simclock.Time // dense per-page: most recent promotion
	//chrono:state LastDemote
	lastDemote []simclock.Time // dense per-page: most recent demotion
	//chrono:state Strikes
	strikes []uint8 // dense per-page: consecutive bounce count
	//chrono:state BackoffUntil
	backoffUntil []simclock.Time // dense per-page: promotion re-admission time
}

// Name implements Policy.
func (g *guarded) Name() string { return g.inner.Name() + "+guard" }

// Attach implements Policy: it finalizes defaults and attaches the inner
// policy to the same kernel. The engine gates every promotion through
// AdmitPromotion, so live and checkpoint-restored retries face the same
// gate.
func (g *guarded) Attach(k Kernel) {
	g.k = k
	g.cfg.setDefaults()
	g.allowMax = k.Node().Capacity(mem.FastTier) / 8
	if g.allowMax < g.cfg.MinAllow {
		g.allowMax = g.cfg.MinAllow
	}
	if g.allow == 0 {
		g.allow = g.allowMax
	}
	g.winStart = k.Clock().Now()
	g.inner.Attach(k)
}

// grow sizes the per-page arrays to the page table.
func (g *guarded) grow() {
	n := len(g.k.Pages())
	if len(g.lastPromote) < n {
		g.lastPromote = append(g.lastPromote, make([]simclock.Time, n-len(g.lastPromote))...)
		g.lastDemote = append(g.lastDemote, make([]simclock.Time, n-len(g.lastDemote))...)
		g.strikes = append(g.strikes, make([]uint8, n-len(g.strikes))...)
		g.backoffUntil = append(g.backoffUntil, make([]simclock.Time, n-len(g.backoffUntil))...)
	}
}

// advance rolls the governor window forward to now — a pure function of
// (state, now), so live and resumed runs evaluate identical windows.
func (g *guarded) advance(now simclock.Time) {
	for now-g.winStart >= governorPeriod {
		if g.winPromotes > 0 && float64(g.winBounces) > bounceFrac*float64(g.winPromotes) {
			// Multiplicative decrease: the window thrashed.
			g.allow /= 2
			if g.allow < g.cfg.MinAllow {
				g.allow = g.cfg.MinAllow
			}
		} else {
			g.allow += g.cfg.MinAllow
			if g.allow > g.allowMax {
				g.allow = g.allowMax
			}
		}
		g.winPromotes, g.winBounces, g.used = 0, 0, 0
		g.winStart += governorPeriod
		// The remaining gap windows are empty: settle them arithmetically
		// instead of iterating (long idle stretches stay O(1)).
		if now-g.winStart >= governorPeriod {
			steps := int64((now - g.winStart) / governorPeriod)
			g.allow += steps * g.cfg.MinAllow
			if g.allow > g.allowMax {
				g.allow = g.allowMax
			}
			g.winStart += simclock.Duration(steps) * governorPeriod
		}
	}
}

// strike records one ping-pong observation against a page.
func (g *guarded) strike(id int64) {
	if g.strikes[id] < 0xff {
		g.strikes[id]++
	}
}

// forgive clears a page's strikes and any armed backoff.
func (g *guarded) forgive(id int64) {
	g.strikes[id] = 0
	g.backoffUntil[id] = 0
}

// AdmitPromotion implements Admitter: per-page backoff first, then the
// global budget. Budget is only consumed on successful promotion
// (OnMigrated), so denied or failed attempts don't burn allowance.
func (g *guarded) AdmitPromotion(pg *vm.Page) bool {
	now := g.k.Clock().Now()
	g.grow()
	g.advance(now)
	id := pg.ID
	if now < g.backoffUntil[id] {
		g.denied++
		return false
	}
	if g.used+int64(pg.Size) > g.allow {
		g.denied++
		return false
	}
	return true
}

// OnMigrated implements Policy: the guard observes every tier move —
// including kswapd and direct-reclaim demotions the inner policy didn't
// ask for — updates the detector and governor, then forwards the event.
func (g *guarded) OnMigrated(pg *vm.Page, from, to mem.TierID) {
	now := g.k.Clock().Now()
	g.grow()
	g.advance(now)
	id := pg.ID
	if to == mem.FastTier {
		if ld := g.lastDemote[id]; ld > 0 {
			switch {
			case now-ld <= g.cfg.Window:
				// Short slow-tier dwell: this promotion closes a
				// promote→demote→promote cycle — the other half of the
				// ping-pong signature (policies with slow demotion but
				// eager re-promotion, e.g. rate-limited ones, only show
				// this leg).
				g.winBounces++
				g.strike(id)
			case now-ld >= quietAfter:
				// The page stayed cold a long time before re-heating:
				// a genuine phase change, not a bounce.
				g.forgive(id)
			}
		}
		g.lastPromote[id] = now
		g.winPromotes++
		g.used += int64(pg.Size)
	} else if from == mem.FastTier {
		if lp := g.lastPromote[id]; lp > 0 {
			switch {
			case now-lp <= g.cfg.Window:
				// Short fast-tier residency: the promotion was wasted.
				g.winBounces++
				g.strike(id)
			case now-lp >= quietAfter:
				// The page earned a long fast-tier residency: forgive it.
				g.forgive(id)
			}
		}
		// A struck page entering the slow tier starts serving its backoff
		// now — the next promotion attempt inside it is denied, which is
		// what breaks the cycle.
		if g.strikes[id] > 0 {
			g.backoffUntil[id] = now + g.cfg.BackoffFor(g.strikes[id])
		}
		g.lastDemote[id] = now
	}
	g.inner.OnMigrated(pg, from, to)
}

// OnFault implements Policy.
func (g *guarded) OnFault(pg *vm.Page, now simclock.Time) { g.inner.OnFault(pg, now) }

// OnPageMapped implements Policy.
func (g *guarded) OnPageMapped(pg *vm.Page) { g.inner.OnPageMapped(pg) }

// OnPageFreed implements Policy.
func (g *guarded) OnPageFreed(pg *vm.Page) { g.inner.OnPageFreed(pg) }

// guardState is the guard's serializable dynamic state: the inner
// policy's own state, the governor accumulators and the dense per-page
// detector columns.
type guardState struct {
	Inner        json.RawMessage `json:"inner,omitempty"`
	Allow        int64           `json:"allow"`
	Used         int64           `json:"used"`
	WinStart     simclock.Time   `json:"win_start"`
	WinPromotes  int64           `json:"win_promotes"`
	WinBounces   int64           `json:"win_bounces"`
	Denied       int64           `json:"denied"`
	LastPromote  []simclock.Time `json:"last_promote"`
	LastDemote   []simclock.Time `json:"last_demote"`
	Strikes      []uint8         `json:"strikes"`
	BackoffUntil []simclock.Time `json:"backoff_until"`
}

// CheckpointState implements Policy.
func (g *guarded) CheckpointState() (any, error) {
	inner, err := g.inner.CheckpointState()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(inner)
	if err != nil {
		return nil, err
	}
	return guardState{
		Inner:       raw,
		Allow:       g.allow,
		Used:        g.used,
		WinStart:    g.winStart,
		WinPromotes: g.winPromotes,
		WinBounces:  g.winBounces,
		Denied:      g.denied,
		// append(nil, ...) copies while keeping a nil column nil,
		// which the bit-identity fence distinguishes from empty.
		LastPromote:  append([]simclock.Time(nil), g.lastPromote...),
		LastDemote:   append([]simclock.Time(nil), g.lastDemote...),
		Strikes:      append([]uint8(nil), g.strikes...),
		BackoffUntil: append([]simclock.Time(nil), g.backoffUntil...),
	}, nil
}

// RestoreCheckpoint implements Policy.
func (g *guarded) RestoreCheckpoint(data []byte) error {
	var st guardState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	// grow() keys on len(lastPromote) alone, so unequal columns would
	// index out of range on the next observed move.
	n := len(st.LastPromote)
	if len(st.LastDemote) != n || len(st.Strikes) != n || len(st.BackoffUntil) != n {
		return fmt.Errorf("thrash guard: restore: per-page columns of unequal length (last_promote %d, last_demote %d, strikes %d, backoff_until %d)",
			n, len(st.LastDemote), len(st.Strikes), len(st.BackoffUntil))
	}
	if err := g.inner.RestoreCheckpoint(st.Inner); err != nil {
		return fmt.Errorf("thrash guard: restore inner %s: %w", g.inner.Name(), err)
	}
	g.allow = st.Allow
	g.used = st.Used
	g.winStart = st.WinStart
	g.winPromotes = st.WinPromotes
	g.winBounces = st.WinBounces
	g.denied = st.Denied
	g.lastPromote = st.LastPromote
	g.lastDemote = st.LastDemote
	g.strikes = st.Strikes
	g.backoffUntil = st.BackoffUntil
	// No eager grow(): the arrays must stay byte-identical to the live
	// run's, which only grows them lazily on the first observed move.
	return nil
}
