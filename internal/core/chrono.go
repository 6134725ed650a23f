// Package core implements Chrono, the paper's contribution: an OS-level
// tiering system built on timer-based hotness measurement.
//
// Components (paper §3, Figure 3):
//
//   - Meticulous page promotion (§3.1): the Ticking-scan poisons slow-tier
//     pages and captures the idle time (CIT) between the scan and the next
//     access — a per-page metric that is statistically proportional to the
//     access interval, decoupling frequency resolution from the scan rate.
//     A two-round candidate filter (an XArray of candidates re-evaluated
//     on the following scan pass) and a rate-limited promotion queue turn
//     CIT classifications into stable migrations.
//   - Adaptive parameter tuning (§3.2): semi-automatic tuning adjusts the
//     CIT threshold against a user rate limit via
//     TH ← (1−δ+δ·r)·TH with r = rate_limit / enqueue_rate; the default
//     fully automatic mode adds Dynamic CIT Statistic Collection (DCSC):
//     random victim probing builds per-tier CIT heat maps whose overlap
//     point yields both the threshold and the rate limit.
//   - Proactive page demotion (§3.3): a promotion-aware "pro" watermark
//     above the high watermark triggers LRU demotion early, keeping free
//     fast-tier memory for promotions, and a thrashing monitor halves the
//     promotion rate when recently demoted pages re-qualify too often.
//   - Huge-page support (§3.4): thresholds scale by page size
//     (TH_2MB = TH_4KB/512) and DCSC redistributes huge-page samples into
//     the base-page heat-map buckets (bucket i → i+9, ×512 pages).
package core

import (
	"fmt"
	"math"

	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/policy/scan"
	"chrono/internal/simclock"
	"chrono/internal/stats"
	"chrono/internal/units"
	"chrono/internal/vm"
	"chrono/internal/xarray"
)

// Tuning selects the parameter tuning mode (§3.2).
type Tuning int

// Tuning modes.
const (
	// TuneDCSC is the default fully automatic mode: DCSC statistics tune
	// both the CIT threshold and the promotion rate limit.
	TuneDCSC Tuning = iota
	// TuneSemiAuto keeps the user's rate limit fixed and auto-tunes only
	// the CIT threshold against it.
	TuneSemiAuto
)

// Options configures Chrono: the values the paper's Chrono variants and
// sensitivity sweeps vary. Zero values take the Table 2 defaults; every
// other parameter is one of the constants below.
type Options struct {
	// Scan configures the Ticking-scan pacing (scan step / scan period;
	// Table 2: 256 MB step, 60 s period).
	Scan scan.Config
	// Rounds is the candidate-filter depth (default 2; §3.1.2 and
	// Appendix B argue 2 is optimal; Chrono-basic uses 1, -thrice 3).
	Rounds int
	// Tuning selects the tuning mode (default TuneDCSC).
	Tuning Tuning
	// RateLimitMBps is the initial (semi-auto: permanent) promotion rate
	// limit (auto-tuned under DCSC).
	RateLimitMBps float64
	// DeltaStep is the threshold adaption step δ.
	DeltaStep float64
	// PVictim is the fraction of pages probed per DCSC statistical scan.
	PVictim float64
}

// Table 2 defaults, which Table 2 and the quickstart example print.
const (
	DefaultRateLimitMBps float64 = 100 // initial promotion rate limit (MB/s)
	DefaultDeltaStep     float64 = 0.5 // threshold adaption step δ
	// DefaultPVictim is the DCSC victim fraction. The paper's 0.003% of a
	// 256 GB machine is ~2000 pages per scan; at simulator scale 0.002
	// keeps the probe-fault volume a small fraction of Ticking-scan
	// faults (matching the paper's context-switch ordering) while still
	// collecting >600 samples per tuning window (see DESIGN.md on
	// scaling).
	DefaultPVictim float64 = 0.002
	// InitialThresholdMS is the initial CIT classification threshold
	// (ms); both tuning modes adjust it from there.
	InitialThresholdMS float64 = 1000
	// BBuckets is the number of CIT heat-map buckets: the finest level
	// is 1 ms and bucket i covers [2^(i-1), 2^i) ms.
	BBuckets int = 28
)

// §3 periods and ratios.
const (
	defaultRounds          = 2                          // candidate-filter depth (§3.1.2, Appendix B)
	statPeriod             = simclock.Second            // DCSC statistical scans: "frequent per-second scans" (§3.2.2)
	tunePeriod             = 5 * simclock.Second        // DCSC parameter updates
	migrateTick            = 100 * simclock.Millisecond // promotion-queue drains
	demotionPeriod         = simclock.Second            // proactive-demotion checks (§3.3.1)
	defaultThrashThreshold = 0.20                       // thrash/promotion ratio that halves the rate limit (§3.3.2)
)

// periods are the intervals of Chrono's periodic tasks: the constants
// above, except where an in-package test pushes them out of reach.
type periods struct{ stat, tune, migrate, demote simclock.Duration }

// candidate is the XArray entry for a page that passed at least one CIT
// round (§3.1.2, Figure 4).
type candidate struct {
	passes  int
	lastCIT simclock.Duration
	stamp   simclock.Time
}

// probe is one outstanding DCSC victim.
type probe struct {
	id    int64
	stamp simclock.Time
}

// Chrono is the tiering policy.
//
//chrono:statesync checkpointState
type Chrono struct {
	policy.Base               //chrono:rebuilt stateless method set
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach

	// Construction-time configuration.
	scanCfg scan.Config //chrono:rebuilt construction-time configuration; the walkers' state is Scan
	rounds  int         //chrono:rebuilt construction-time configuration
	tuning  Tuning      //chrono:rebuilt construction-time configuration
	every   periods     //chrono:rebuilt constants, set by New

	// The sysctl-writable knobs of §4 besides the threshold and the
	// rate limit: the adaption step δ, the DCSC victim fraction and the
	// thrash ratio that halves the rate limit.
	deltaStep       float64 //chrono:state DeltaStep
	pVictim         float64 //chrono:state PVictim
	thrashThreshold float64 //chrono:state ThrashThreshold

	scan *scan.Set //chrono:state Scan
	// citScale converts an observed poison-to-fault gap into the CIT of
	// a representative real 4 KB page: the simulated page aggregates
	// CostScale real pages, so a real page's idle gap is CostScale× the
	// region's first-fault gap (uniform-phase periodic model). All CIT
	// values, buckets, and thresholds are therefore in real-page
	// milliseconds, directly comparable with the paper's Table 2.
	citScale float64 //chrono:rebuilt derived from Kernel.CostScale at Attach

	// thresholdMS is the live CIT classification threshold.
	thresholdMS float64 //chrono:state ThresholdMS
	// rateLimitBps is the live promotion rate limit in bytes/second.
	rateLimitBps float64 //chrono:state RateLimitBps

	// Candidate filtering (§3.1.2).
	cands *xarray.XArray //chrono:state Cands
	// Promotion queue, FIFO of page IDs, drained rate-limited.
	queue []int64 //chrono:state Queue
	// enqueue accounting for the semi-auto tuner (bytes per scan period),
	// plus the cross-period average the §3.2.1 controller divides by.
	enqueuedBytes  float64 //chrono:state EnqueuedBytes
	enqueueRateEMA float64 //chrono:state EnqueueRateEMA
	// dequeue/promotion accounting for the thrash monitor.
	promotedPages int64 //chrono:state PromotedPages
	thrashEvents  int64 //chrono:state ThrashEvents
	// retries counts transient promotion failures per queued page ID
	// (busy/pinned-page aborts); pages exceeding maxPromoteRetries are
	// dropped from the queue. Keyed access only — never iterated — so
	// map order cannot leak into the migration order.
	retries map[int64]int8 //chrono:state Retries

	// DCSC heat maps (§3.2.2): per-tier CIT bucket counters, decayed at
	// every tuning step. Sample counts track the scaling denominator.
	heat    [mem.NumTiers][]float64 //chrono:state Heat
	samples [mem.NumTiers]float64   //chrono:state Samples
	// probes tracks outstanding PG_probed victims so ones that never
	// fault (cold pages) are expired into the coldest bucket instead of
	// silently biasing the heat map toward hot pages.
	probes []probe //chrono:state Probes

	// Histories for Figure 10b/c.
	ThresholdHist stats.Series //chrono:state ThresholdHist
	RateLimitHist stats.Series //chrono:state RateLimitHist

	// citObserver, if set, receives every Ticking-scan CIT observation
	// (page, CIT in ms). Used by the Figure 10a harness.
	citObserver func(pg *vm.Page, citMS float64) //chrono:rebuilt harness closure; the harness reattaches it

	// Counters exported for tests and reports.
	Enqueued    int64 //chrono:state Enqueued
	Promoted    int64 //chrono:state Promoted
	Demoted     int64 //chrono:state Demoted
	ThrashTotal int64 //chrono:state ThrashTotal
	DCSCSamples int64 //chrono:state DCSCSamples
	//chrono:state FilteredOut
	FilteredOut int64 // candidates dropped by a failed second round
	//chrono:state QueueDropped
	QueueDropped int64 // submissions dropped by the queue bound
	//chrono:state RetryDropped
	RetryDropped int64 // queued pages dropped after repeated transient aborts
}

// New returns a Chrono policy with the given options.
func New(opt Options) *Chrono {
	c := &Chrono{
		scanCfg:         opt.Scan,
		rounds:          orDefault(opt.Rounds, defaultRounds),
		tuning:          opt.Tuning,
		every:           periods{stat: statPeriod, tune: tunePeriod, migrate: migrateTick, demote: demotionPeriod},
		deltaStep:       orDefault(opt.DeltaStep, DefaultDeltaStep),
		pVictim:         orDefault(opt.PVictim, DefaultPVictim),
		thrashThreshold: defaultThrashThreshold,
		thresholdMS:     InitialThresholdMS,
		rateLimitBps:    orDefault(opt.RateLimitMBps, DefaultRateLimitMBps) * 1e6,
		cands:           &xarray.XArray{},
		retries:         make(map[int64]int8),
	}
	for t := range c.heat {
		c.heat[t] = make([]float64, BBuckets)
	}
	c.ThresholdHist.Name = "cit_threshold_ms"
	c.RateLimitHist.Name = "rate_limit_mbps"
	return c
}

// orDefault returns v, or def when v is zero.
func orDefault[T int | float64](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

// Name implements policy.Policy.
func (c *Chrono) Name() string { return "Chrono" }

// ThresholdMS returns the live CIT threshold in milliseconds.
func (c *Chrono) ThresholdMS() float64 { return c.thresholdMS }

// RateLimitMBps returns the live promotion rate limit in MB/s.
func (c *Chrono) RateLimitMBps() float64 { return c.rateLimitBps / 1e6 }

// QueueLen returns the current promotion queue depth.
func (c *Chrono) QueueLen() int { return len(c.queue) }

// Candidates returns the current candidate-set size.
func (c *Chrono) Candidates() int { return c.cands.Len() }

// SetCITObserver installs a callback receiving every Ticking-scan CIT
// observation (Figure 10a instrumentation).
func (c *Chrono) SetCITObserver(fn func(pg *vm.Page, citMS float64)) {
	c.citObserver = fn
}

// enabled consults the kernel/numa_tiering sysctl (§4: "We add a new
// numa_tiering option in sysctl to enable Chrono"); writing 0 pauses all
// of Chrono's periodic work at the next tick.
func (c *Chrono) enabled() bool {
	v, err := c.k.Sysctl().Get("kernel/numa_tiering")
	return err != nil || v != "0"
}

// Attach implements policy.Policy: wire the Ticking-scan, the promotion
// migrator, the tuners, and the demotion daemon.
func (c *Chrono) Attach(k policy.Kernel) {
	c.k = k
	c.citScale = k.CostScale()
	c.registerSysctl()

	// Ticking-scan (§3.1.1): poison slow-tier pages, recording the scan
	// timestamp. Fast-tier pages are not poisoned — their hotness is
	// tracked by the LRU for demotion — so Chrono's hint-fault volume
	// stays below NUMA balancing's (Figure 8's context-switch column).
	c.scan = scan.Start(k, c.scanCfg, func(pg *vm.Page, now simclock.Time) {
		if pg.Tier == mem.SlowTier && c.enabled() {
			k.Protect(pg)
		}
	})

	// Promotion-queue migrator (§3.1.2), budgeted by the rate limit.
	k.Clock().EveryKey("chrono/migrate", c.every.migrate, func(now simclock.Time) {
		if c.enabled() {
			c.drainQueue(now)
		}
	})

	// Semi-auto threshold tuning runs once per scan period (§3.2.1).
	k.Clock().EveryKey("chrono/semiauto", c.scan.Config().Period, func(now simclock.Time) {
		c.semiAutoTick(now)
	})

	if c.tuning == TuneDCSC {
		// DCSC statistical scans and the derived parameter updates
		// (§3.2.2).
		k.Clock().EveryKey("chrono/stat", c.every.stat, func(now simclock.Time) {
			if c.enabled() {
				c.statScan(now)
			}
		})
		k.Clock().EveryKey("chrono/tune", c.every.tune, func(now simclock.Time) {
			if c.enabled() {
				c.dcscTune(now)
			}
		})
	}

	// Proactive demotion against the pro watermark (§3.3.1).
	k.Clock().EveryKey("chrono/demote", c.every.demote, func(now simclock.Time) {
		if c.enabled() {
			c.demotionTick(now)
		}
	})

	c.ThresholdHist.Append(0, c.thresholdMS)
	c.RateLimitHist.Append(0, c.RateLimitMBps())
}

// knob is one of Chrono's sysctl-writable values (§4) and its range.
type knob struct {
	path, desc, rng string
	v               *float64
	ok              func(float64) bool
}

// knobs lists Chrono's sysctl-writable values. Each must stay finite
// and in range: statScan draws len(pages)·p_victim victims every
// second, so a huge or NaN value would wedge the run.
func (c *Chrono) knobs() []knob {
	positive := func(v float64) bool { return v > 0 && v < math.Inf(1) }
	return []knob{
		{"chrono/cit_threshold_ms", "CIT classification threshold (ms)", "(0, +Inf)", &c.thresholdMS, positive},
		{"chrono/rate_limit_bps", "promotion rate limit (bytes/s)", "(0, +Inf)", &c.rateLimitBps, positive},
		{"chrono/delta_step", "threshold adaption step δ", "(0, 1)", &c.deltaStep, func(v float64) bool { return v > 0 && v < 1 }},
		{"chrono/p_victim", "DCSC victim sampling fraction", "(0, 1]", &c.pVictim, func(v float64) bool { return v > 0 && v <= 1 }},
		{"chrono/thrash_threshold", "thrash ratio that halves the rate limit", "(0, +Inf)", &c.thrashThreshold, positive},
	}
}

// check returns an error unless v is in the knob's range.
func (kb knob) check(v float64) error {
	if !kb.ok(v) {
		return fmt.Errorf("value %v is outside %s", v, kb.rng)
	}
	return nil
}

// registerSysctl exposes the knobs.
func (c *Chrono) registerSysctl() {
	for _, kb := range c.knobs() {
		c.k.Sysctl().Float64(kb.path, kb.desc, kb.v, kb.check, nil)
	}
}

// effectiveThresholdMS returns the CIT threshold for a page, scaled by its
// size (§3.4: TH_2MB = TH_4KB / 512).
func (c *Chrono) effectiveThresholdMS(pg *vm.Page) float64 {
	return c.thresholdMS / float64(pg.Size)
}

// OnFault implements policy.Policy: the CIT capture point. The engine has
// already cleared the poisoning and stamped pg.LastFault; pg.ProtTS still
// holds the poisoning timestamp, so CIT = now − ProtTS.
func (c *Chrono) OnFault(pg *vm.Page, now simclock.Time) {
	cit := now - pg.ProtTS
	if pg.Flags.Has(vm.FlagProbed) {
		c.onProbeFault(pg, cit, now)
		return
	}
	if pg.Tier != mem.SlowTier {
		return
	}
	c.k.ChargeKernel(units.NS(90 * c.k.CostScale())) // CIT arithmetic + candidate lookup

	citMS := cit.Millis() * c.citScale
	if c.citObserver != nil {
		c.citObserver(pg, citMS)
	}
	th := c.effectiveThresholdMS(pg)

	// Thrash detection (§3.3.2): a recently demoted page re-qualifying
	// within a scan period is a thrash event.
	if pg.Flags.Has(vm.FlagDemoted) {
		if citMS < th && now-pg.DemoteTS <= c.scan.Config().Period {
			c.thrashEvents++
			c.ThrashTotal++
		}
		pg.Flags &^= vm.FlagDemoted
	}

	key := uint64(pg.ID)
	entry, _ := c.cands.Load(key).(*candidate)

	if citMS >= th {
		// Failed a round: drop candidacy (Figure 4, second-round "N").
		if entry != nil {
			c.cands.Erase(key)
			pg.Flags &^= vm.FlagCandidate
			c.FilteredOut++
		}
		return
	}

	if entry == nil {
		entry = &candidate{}
		c.cands.Store(key, entry)
		pg.Flags |= vm.FlagCandidate
	}
	entry.passes++
	entry.lastCIT = cit
	entry.stamp = now

	if entry.passes >= c.rounds {
		// Submission (Figure 4 step 5): move to the promotion queue. The
		// queue is bounded to one scan period's worth of rate-limited
		// migration — beyond that, additional candidates cannot possibly
		// migrate before the next re-evaluation, so they are dropped
		// (they re-qualify on a later pass if still hot). The enqueue
		// *demand* is still counted for the semi-auto tuner.
		c.cands.Erase(key)
		pg.Flags &^= vm.FlagCandidate
		c.Enqueued++
		c.enqueuedBytes += float64(int64(pg.Size) * c.k.Node().PageSizeBytes)
		if len(c.queue) < c.maxQueueLen() {
			c.queue = append(c.queue, pg.ID)
		} else {
			c.QueueDropped++
		}
	}
}

// maxQueueLen bounds the promotion queue at one scan period of migration
// budget.
func (c *Chrono) maxQueueLen() int {
	pages := c.rateLimitBps * c.scan.Config().Period.Seconds() /
		float64(c.k.Node().PageSizeBytes)
	if pages < 64 {
		pages = 64
	}
	return int(pages)
}

// maxPromoteRetries bounds how many transient aborts one queued page may
// accumulate before drainQueue stops spending budget on it. A dropped
// page is not lost: if it stays hot, a later Ticking-scan pass
// re-qualifies it through the candidate filter.
const maxPromoteRetries = 3

// drainQueue promotes queued pages within the rate-limit budget.
//
// Failure handling splits the migration verdicts in two: a transient
// abort (busy/pinned page) skips-and-requeues the page at the BACK of
// the queue — the head must not wedge the whole queue, and the next
// attempt happens no earlier than the next MigrateTick, which is the
// retry backoff in sim time — while any other refusal (capacity,
// bandwidth, admission) re-queues at the front and stops the drain.
func (c *Chrono) drainQueue(now simclock.Time) {
	budgetBytes := c.rateLimitBps * c.every.migrate.Seconds()
	pageBytes := float64(c.k.Node().PageSizeBytes)
	pages := c.k.Pages()
	// Bound the pass to the queue length at entry so a page requeued
	// after a transient abort is not retried within the same tick.
	for n := len(c.queue); n > 0 && len(c.queue) > 0 && budgetBytes >= pageBytes; n-- {
		id := c.queue[0]
		c.queue = c.queue[1:]
		pg := pages[id]
		if pg == nil || pg.Tier != mem.SlowTier {
			delete(c.retries, id)
			continue // stale entry
		}
		cost := float64(int64(pg.Size) * c.k.Node().PageSizeBytes)
		if cost > budgetBytes && c.promotedPages > 0 {
			// Re-queue the head; not enough budget this tick.
			c.queue = append([]int64{id}, c.queue...)
			return
		}
		switch c.k.TryPromote(pg) {
		case policy.MigrateOK:
			delete(c.retries, id)
			budgetBytes -= cost
			c.Promoted++
			c.promotedPages += int64(pg.Size)
		case policy.MigrateTransient:
			if c.retries[id]++; c.retries[id] >= maxPromoteRetries {
				delete(c.retries, id)
				c.RetryDropped++
			} else {
				c.queue = append(c.queue, id)
			}
		default: // MigrateNoCapacity, MigrateThrottled, MigrateDenied
			// Fast tier unreclaimable, migration bandwidth exhausted or
			// admission denied: retry the page next tick.
			c.queue = append([]int64{id}, c.queue...)
			return
		}
	}
}
