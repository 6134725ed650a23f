package core

import (
	"math"
	"math/bits"

	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// This file implements the adaptive parameter tuning of §3.2: the
// semi-automatic CIT threshold controller and the DCSC statistics-based
// fully automatic tuner.

// Threshold clamps: the finest CIT level is 1 ms; values above 2^27 ms
// (~37.3 h) carry no hot/cold signal (§4).
const (
	minThresholdMS = 1
	maxThresholdMS = float64(1 << 27)
)

// semiAutoTick applies the §3.2.1 update once per scan period:
//
//	r = rate_limit / enqueue_rate,  TH ← (1 − δ + δ·r)·TH.
//
// It also closes the thrash-monitor accounting window (§3.3.2).
func (c *Chrono) semiAutoTick(now simclock.Time) {
	period := c.scan.Config().Period.Seconds()
	// "Averaging the enqueue rate within each Ticking-scan period ...
	// ensures smooth and predictable adjustments": the controller divides
	// by a cross-period running average rather than the raw last-period
	// rate, damping threshold oscillation.
	c.enqueueRateEMA = 0.5*c.enqueueRateEMA + 0.5*c.enqueuedBytes/period
	enqueueRate := c.enqueueRateEMA
	c.enqueuedBytes = 0
	c.expireCandidates(now)

	if c.tuning == TuneSemiAuto {
		r := 1.0
		if enqueueRate > 0 {
			r = c.rateLimitBps / enqueueRate
		} else {
			// Nothing qualified: open the threshold to find candidates.
			r = 2.0
		}
		// Bound a single step so one noisy period cannot blow the
		// threshold up or collapse it.
		if r > 4 {
			r = 4
		} else if r < 0.1 {
			r = 0.1
		}
		delta := c.deltaStep
		c.thresholdMS *= 1 - delta + delta*r
		c.clampThreshold()
		c.ThresholdHist.Append(now.Seconds(), c.thresholdMS)
		c.RateLimitHist.Append(now.Seconds(), c.RateLimitMBps())
	}

	// Thrash monitor (§3.3.2): compare the thrashing rate with the
	// promotion rate over the closing scan period.
	if c.promotedPages > 0 {
		ratio := float64(c.thrashEvents) / float64(c.promotedPages)
		if ratio > c.thrashThreshold {
			c.rateLimitBps /= 2
			c.clampRateLimit()
			c.RateLimitHist.Append(now.Seconds(), c.RateLimitMBps())
		}
	}
	c.thrashEvents = 0
	c.promotedPages = 0
}

func (c *Chrono) clampThreshold() {
	if c.thresholdMS < minThresholdMS {
		c.thresholdMS = minThresholdMS
	}
	if c.thresholdMS > maxThresholdMS {
		c.thresholdMS = maxThresholdMS
	}
	if math.IsNaN(c.thresholdMS) || math.IsInf(c.thresholdMS, 0) {
		c.thresholdMS = InitialThresholdMS
	}
}

func (c *Chrono) clampRateLimit() {
	const minBps = 16e6 // 16 MB/s floor keeps migration responsive
	const maxBps = 4e9  // bounded by the copy engine
	if c.rateLimitBps < minBps {
		c.rateLimitBps = minBps
	}
	if c.rateLimitBps > maxBps {
		c.rateLimitBps = maxBps
	}
}

// expireCandidates drops candidate entries that have not re-faulted for
// two scan periods: the page has either gone cold or was migrated, and a
// stale pass count must not carry into a much later qualification.
func (c *Chrono) expireCandidates(now simclock.Time) {
	maxAge := 2 * c.scan.Config().Period
	var stale []uint64
	c.cands.Range(func(key uint64, v any) bool {
		if entry, ok := v.(*candidate); ok && now-entry.stamp > maxAge {
			stale = append(stale, key)
		}
		return true
	})
	pages := c.k.Pages()
	for _, key := range stale {
		c.cands.Erase(key)
		if pg := pages[key]; pg != nil {
			pg.Flags &^= vm.FlagCandidate
		}
	}
}

// citBucket maps a CIT in milliseconds to its heat-map bucket: the finest
// level is 1 ms, bucket i covers [2^(i-1), 2^i) ms (§4). Lower bucket =
// hotter page.
func (c *Chrono) citBucket(citMS float64) int {
	if citMS < 1 {
		return 0
	}
	b := bits.Len64(uint64(citMS))
	if b >= BBuckets {
		b = BBuckets - 1
	}
	return b
}

// BucketUpperMS returns the upper CIT bound of a heat-map bucket.
func (c *Chrono) BucketUpperMS(b int) float64 { return math.Exp2(float64(b)) }

// statScan launches one DCSC statistical scan (§3.2.2, Figure 5): a random
// P-victim fraction of resident pages is poisoned with PG_probed for
// two-round CIT collection. The randomized order decouples it from the
// sequential Ticking-scan.
func (c *Chrono) statScan(now simclock.Time) {
	pages := c.k.Pages()
	if len(pages) == 0 {
		return
	}
	c.expireProbes(now)
	n := int(float64(len(pages)) * c.pVictim)
	if n < 1 {
		n = 1
	}
	r := c.k.RNG()
	for i := 0; i < n; i++ {
		pg := pages[r.Intn(len(pages))]
		if pg == nil || pg.Flags.Has(vm.FlagProbed) {
			continue
		}
		pg.Flags |= vm.FlagProbed
		pg.Meta2 = 0 // first-round CIT pending
		c.k.Protect(pg)
		c.probes = append(c.probes, probe{id: pg.ID, stamp: now})
	}
}

// probeExpiry is how long a victim may stay poisoned without faulting
// before it is recorded as cold. Without this, pages too cold to fault
// within the tuning window would never reach the heat map and the CIT
// distribution would be conditioned on hotness.
const probeExpiry = 8 * simclock.Second

// expireProbes sweeps outstanding victims: completed ones are dropped;
// ones poisoned for longer than probeExpiry are recorded with their
// elapsed idle time (a lower bound on their true CIT) and released.
func (c *Chrono) expireProbes(now simclock.Time) {
	pages := c.k.Pages()
	live := c.probes[:0]
	for _, pr := range c.probes {
		pg := pages[pr.id]
		if pg == nil || !pg.Flags.Has(vm.FlagProbed) {
			continue // completed both rounds (or page freed)
		}
		if now-pr.stamp < probeExpiry {
			live = append(live, pr)
			continue
		}
		pg.Flags &^= vm.FlagProbed
		pg.Meta2 = 0
		c.k.Unprotect(pg)
		c.recordSample(pg, (now-pr.stamp).Millis()*c.citScale)
	}
	c.probes = live
}

// onProbeFault handles a fault on a PG_probed victim: the first round
// stores its CIT and re-poisons; the second records max(CIT1, CIT2) into
// the tier's heat map — the maximum-value estimator Appendix B.1 shows to
// be minimum-variance.
func (c *Chrono) onProbeFault(pg *vm.Page, cit simclock.Duration, now simclock.Time) {
	c.k.ChargeKernel(units.NS(120 * c.k.CostScale()))
	if pg.Meta2 == 0 {
		// Round 1: stash CIT (+1 so a 0ns CIT is distinguishable) and
		// re-poison for round 2.
		pg.Meta2 = uint64(cit) + 1
		c.k.Protect(pg)
		pg.Flags |= vm.FlagProbed // Protect preserves flags; be explicit
		return
	}
	cit1 := simclock.Duration(pg.Meta2 - 1)
	pg.Meta2 = 0
	pg.Flags &^= vm.FlagProbed
	final := cit
	if cit1 > final {
		final = cit1
	}
	c.recordSample(pg, final.Millis()*c.citScale)
}

// recordSample adds one two-round CIT observation to the page's tier heat
// map. Huge pages redistribute into base-page terms: a huge page folding
// 2^k base pages in bucket i counts as 2^k base pages in bucket i+k —
// the paper's §3.4 rule (2 MB: 512 pages, bucket i+9) expressed through
// the actual fold factor, since adjacent buckets are 2× frequency apart.
func (c *Chrono) recordSample(pg *vm.Page, citMS float64) {
	b := c.citBucket(citMS)
	weight := 1.0
	if pg.IsHuge() {
		b += bits.Len32(uint32(pg.Size)) - 1
		if b >= BBuckets {
			b = BBuckets - 1
		}
		weight = float64(pg.Size)
	}
	c.heat[pg.Tier][b] += weight
	c.samples[pg.Tier] += weight
	c.DCSCSamples++
}

// HeatMap returns a copy of the current heat map of a tier (for tests and
// the report harness).
func (c *Chrono) HeatMap(t mem.TierID) []float64 {
	out := make([]float64, len(c.heat[t]))
	copy(out, c.heat[t])
	return out
}

// dcscTune recomputes the CIT threshold and the rate limit from the heat
// maps (§3.2.2, Figure 5 steps 4-5):
//
//   - Scale each tier's bucket counts to its resident population.
//   - Walk buckets from hottest to coldest accumulating estimated pages;
//     the bucket where the running total crosses the fast-tier capacity is
//     the overlap point: pages hotter than it belong in the fast tier.
//   - The threshold becomes that bucket's CIT upper bound; the number of
//     hot pages currently resident in the slow tier is the misplacement,
//     and rate_limit = misplaced_bytes / scan_period.
func (c *Chrono) dcscTune(now simclock.Time) {
	node := c.k.Node()
	resident := [mem.NumTiers]float64{
		mem.FastTier: float64(node.Used(mem.FastTier)),
		mem.SlowTier: float64(node.Used(mem.SlowTier)),
	}
	if c.samples[mem.FastTier] == 0 && c.samples[mem.SlowTier] == 0 {
		return
	}
	c.k.ChargeKernel(units.NS(2000 * c.k.CostScale())) // heat-map aggregation

	est := func(t mem.TierID, b int) float64 {
		if c.samples[t] == 0 {
			return 0
		}
		return c.heat[t][b] / c.samples[t] * resident[t]
	}

	fastCap := float64(node.Capacity(mem.FastTier))
	var cum, misplaced float64
	overlap := BBuckets - 1
	frac := 1.0
	for b := 0; b < BBuckets; b++ {
		bucketTotal := est(mem.FastTier, b) + est(mem.SlowTier, b)
		misplaced += est(mem.SlowTier, b)
		if cum+bucketTotal >= fastCap {
			overlap = b
			if bucketTotal > 0 {
				frac = (fastCap - cum) / bucketTotal
			}
			break
		}
		cum += bucketTotal
	}

	// The crossing bucket only partially fits in the fast tier:
	// interpolate the overlap point inside it (geometrically — adjacent
	// buckets are 2x apart) so mildly skewed hotness distributions,
	// where one bucket holds many near-equal pages, still get a sharp
	// classification boundary instead of a 2x-quantized one.
	lo := c.BucketUpperMS(overlap - 1)
	c.thresholdMS = lo * math.Pow(2, frac)
	c.clampThreshold()

	period := c.scan.Config().Period.Seconds()
	newLimit := misplaced * float64(node.PageSizeBytes) / period
	// Smooth the limit so one noisy window does not whipsaw migration.
	c.rateLimitBps = 0.5*c.rateLimitBps + 0.5*newLimit
	c.clampRateLimit()

	c.ThresholdHist.Append(now.Seconds(), c.thresholdMS)
	c.RateLimitHist.Append(now.Seconds(), c.RateLimitMBps())

	// Decay the heat maps: old observations fade across tuning windows.
	for t := range c.heat {
		for b := range c.heat[t] {
			c.heat[t][b] *= 0.5
		}
		c.samples[t] *= 0.5
	}
}
