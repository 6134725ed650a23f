package core

import (
	"math"
	"testing"

	"chrono/internal/mem"
	"chrono/internal/policy/policytest"
	"chrono/internal/policy/scan"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// attach wires a Chrono to a fake kernel, with its DCSC, migration and
// demotion tasks pushed out of reach.
func attach(t *testing.T, opt Options) (*Chrono, *fakeKernel) {
	t.Helper()
	k := newFakeKernel()
	k.addPage(mem.SlowTier, 1) // ensure a process/VMA exists for the scanner
	c := New(opt)
	c.every = periods{stat: far, tune: far, migrate: far, demote: far}
	c.Attach(k)
	return c, k
}

func TestDefaults(t *testing.T) {
	c := New(Options{})
	if c.rounds != 2 || c.tuning != TuneDCSC || c.deltaStep != 0.5 || c.pVictim != 0.002 ||
		c.thrashThreshold != 0.2 || len(c.heat[mem.FastTier]) != 28 || len(c.heat[mem.SlowTier]) != 28 {
		t.Fatalf("defaults: rounds %d tuning %d δ %v p_victim %v thrash %v buckets %d/%d",
			c.rounds, c.tuning, c.deltaStep, c.pVictim, c.thrashThreshold,
			len(c.heat[mem.FastTier]), len(c.heat[mem.SlowTier]))
	}
	want := periods{stat: simclock.Second, tune: 5 * simclock.Second,
		migrate: 100 * simclock.Millisecond, demote: simclock.Second}
	if c.every != want {
		t.Fatalf("periods %+v, want %+v", c.every, want)
	}
	if c.Name() != "Chrono" {
		t.Fatal("name")
	}
	if c.ThresholdMS() != 1000 {
		t.Fatalf("initial threshold %v", c.ThresholdMS())
	}
	if c.RateLimitMBps() != 100 {
		t.Fatalf("initial rate limit %v", c.RateLimitMBps())
	}
}

func TestTwoRoundCandidateFiltering(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.SlowTier, 1)

	// Round 1: protect, fault 100ms later (CIT 100 < TH 1000).
	k.Protect(pg)
	k.advance(100 * simclock.Millisecond)
	k.fault(c, pg)
	if c.Candidates() != 1 {
		t.Fatalf("candidates after round 1 = %d, want 1", c.Candidates())
	}
	if c.QueueLen() != 0 {
		t.Fatal("page queued after a single round")
	}
	if !pg.Flags.Has(vm.FlagCandidate) {
		t.Fatal("FlagCandidate not set")
	}

	// Round 2: re-protect (next scan pass), fault again below threshold.
	k.Protect(pg)
	k.advance(200 * simclock.Millisecond)
	k.fault(c, pg)
	if c.QueueLen() != 1 {
		t.Fatalf("queue after round 2 = %d, want 1", c.QueueLen())
	}
	if c.Candidates() != 0 {
		t.Fatal("candidate not removed after submission")
	}
	if pg.Flags.Has(vm.FlagCandidate) {
		t.Fatal("FlagCandidate not cleared")
	}
	if c.Enqueued != 1 {
		t.Fatalf("Enqueued=%d", c.Enqueued)
	}
}

func TestFailedSecondRoundDropsCandidate(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.SlowTier, 1)

	k.Protect(pg)
	k.advance(50 * simclock.Millisecond)
	k.fault(c, pg) // round 1 passes
	k.Protect(pg)
	k.advance(5 * simclock.Second) // CIT 5000 > TH 1000
	k.fault(c, pg)
	if c.Candidates() != 0 {
		t.Fatal("failed second round kept the candidate")
	}
	if c.QueueLen() != 0 {
		t.Fatal("failed round enqueued the page")
	}
	if c.FilteredOut != 1 {
		t.Fatalf("FilteredOut=%d", c.FilteredOut)
	}
}

func TestColdPageNeverCandidates(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.SlowTier, 1)
	k.Protect(pg)
	k.advance(10 * simclock.Second)
	k.fault(c, pg)
	if c.Candidates() != 0 || c.QueueLen() != 0 {
		t.Fatal("cold page entered the pipeline")
	}
}

func TestOneRoundVariantPromotesImmediately(t *testing.T) {
	opt := quietOptions()
	opt.Rounds = 1
	c, k := attach(t, opt)
	pg := k.addPage(mem.SlowTier, 1)
	k.Protect(pg)
	k.advance(50 * simclock.Millisecond)
	k.fault(c, pg)
	if c.QueueLen() != 1 {
		t.Fatal("Rounds=1 should queue on the first passing CIT")
	}
}

func TestThreeRoundVariant(t *testing.T) {
	opt := quietOptions()
	opt.Rounds = 3
	c, k := attach(t, opt)
	pg := k.addPage(mem.SlowTier, 1)
	for round := 1; round <= 3; round++ {
		k.Protect(pg)
		k.advance(40 * simclock.Millisecond)
		k.fault(c, pg)
		if round < 3 && c.QueueLen() != 0 {
			t.Fatalf("queued after %d rounds", round)
		}
	}
	if c.QueueLen() != 1 {
		t.Fatal("not queued after 3 passing rounds")
	}
}

func TestFastTierFaultIgnored(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.FastTier, 1)
	k.Protect(pg)
	k.advance(10 * simclock.Millisecond)
	k.fault(c, pg)
	if c.Candidates() != 0 || c.QueueLen() != 0 {
		t.Fatal("fast-tier fault entered the promotion pipeline")
	}
}

func TestHugePageThresholdScaling(t *testing.T) {
	c, k := attach(t, quietOptions())
	huge := k.addPage(mem.SlowTier, 64)
	// Effective threshold = 1000/64 = 15.6 ms. A 40 ms CIT must fail.
	if got := c.effectiveThresholdMS(huge); math.Abs(got-1000.0/64) > 1e-9 {
		t.Fatalf("effective huge threshold %v", got)
	}
	k.Protect(huge)
	k.advance(40 * simclock.Millisecond)
	k.fault(c, huge)
	if c.Candidates() != 0 {
		t.Fatal("huge page with CIT above scaled threshold became candidate")
	}
	// A 5 ms CIT passes.
	k.Protect(huge)
	k.advance(5 * simclock.Millisecond)
	k.fault(c, huge)
	if c.Candidates() != 1 {
		t.Fatal("huge page with CIT below scaled threshold rejected")
	}
}

func TestDrainQueueRateLimit(t *testing.T) {
	opt := quietOptions()
	opt.RateLimitMBps = 1 // 1 MB/s; page = 4096 B at CostScale 1
	c, k := attach(t, opt)
	// Queue 10 pages manually.
	for i := 0; i < 10; i++ {
		pg := k.addPage(mem.SlowTier, 1)
		c.queue = append(c.queue, pg.ID)
	}
	// One 100 ms tick has budget 0.1 MB = 25 pages; all 10 drain.
	c.every.migrate = 100 * simclock.Millisecond
	c.drainQueue(k.clock.Now())
	if len(k.promotes) != 10 {
		t.Fatalf("promoted %d of 10 within budget", len(k.promotes))
	}

	// Now an extreme limit: budget below one page promotes nothing...
	c.rateLimitBps = 1000 // 100 B per tick < 4096
	pg := k.addPage(mem.SlowTier, 1)
	c.queue = append(c.queue, pg.ID)
	c.drainQueue(k.clock.Now())
	if len(k.promotes) != 10 {
		t.Fatalf("promotion happened with empty budget: %d", len(k.promotes))
	}
	if c.QueueLen() != 1 {
		t.Fatal("queue entry lost under empty budget")
	}
}

func TestDrainQueueSkipsStaleEntries(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.SlowTier, 1)
	c.queue = append(c.queue, pg.ID)
	pg.Tier = mem.FastTier // already promoted by other means
	c.every.migrate = 100 * simclock.Millisecond
	c.drainQueue(k.clock.Now())
	if len(k.promotes) != 0 || c.QueueLen() != 0 {
		t.Fatal("stale queue entry not skipped")
	}
}

func TestDrainQueueRequeuesOnFailedMigration(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.SlowTier, 1)
	c.queue = append(c.queue, pg.ID)
	k.promoteOK = func(*vm.Page) bool { return false } // migration bandwidth dry
	c.every.migrate = 100 * simclock.Millisecond
	c.drainQueue(k.clock.Now())
	if c.QueueLen() != 1 {
		t.Fatal("failed promotion dropped from queue")
	}
}

func TestSemiAutoThresholdUpdate(t *testing.T) {
	opt := quietOptions()
	opt.Tuning = TuneSemiAuto
	opt.RateLimitMBps = 100
	opt.DeltaStep = 0.5
	c, k := attach(t, opt)

	// The controller divides by the smoothed enqueue rate; prime the EMA
	// so one tick sees exactly 2x the limit: r = 0.5, TH *= 0.75.
	period := c.scan.Config().Period.Seconds()
	c.enqueueRateEMA = 2 * 100e6
	c.enqueuedBytes = 2 * 100e6 * period
	before := c.ThresholdMS()
	c.semiAutoTick(k.clock.Now())
	want := before * 0.75
	if math.Abs(c.ThresholdMS()-want) > 1e-6 {
		t.Fatalf("TH after over-enqueue: %v, want %v", c.ThresholdMS(), want)
	}

	// Smoothed rate at half the limit: r = 2, TH *= (0.5+1) = 1.5.
	c.enqueueRateEMA = 0.5 * 100e6
	c.enqueuedBytes = 0.5 * 100e6 * period
	before = c.ThresholdMS()
	c.semiAutoTick(k.clock.Now())
	if math.Abs(c.ThresholdMS()-before*1.5) > 1e-6 {
		t.Fatalf("TH after under-enqueue: %v", c.ThresholdMS())
	}

	// No enqueues at all: threshold opens up (r clamped to 2 → ×1.5).
	c.enqueueRateEMA = 0
	c.enqueuedBytes = 0
	before = c.ThresholdMS()
	c.semiAutoTick(k.clock.Now())
	if c.ThresholdMS() <= before {
		t.Fatal("threshold did not open with zero enqueue rate")
	}
}

func TestSemiAutoClamp(t *testing.T) {
	opt := quietOptions()
	opt.Tuning = TuneSemiAuto
	c, k := attach(t, opt)
	c.thresholdMS = minThresholdMS
	period := c.scan.Config().Period.Seconds()
	c.enqueueRateEMA = 1000 * c.rateLimitBps
	c.enqueuedBytes = 1000 * c.rateLimitBps * period // massive over-enqueue
	c.semiAutoTick(k.clock.Now())
	if c.ThresholdMS() < minThresholdMS {
		t.Fatalf("threshold below clamp: %v", c.ThresholdMS())
	}
	c.thresholdMS = maxThresholdMS
	c.enqueueRateEMA = 0
	c.enqueuedBytes = 0
	c.semiAutoTick(k.clock.Now())
	if c.ThresholdMS() > maxThresholdMS {
		t.Fatalf("threshold above clamp: %v", c.ThresholdMS())
	}
}

func TestThrashMonitorHalvesRateLimit(t *testing.T) {
	c, k := attach(t, quietOptions())
	before := c.rateLimitBps
	// 30% of promoted pages thrashed (> 20% threshold).
	c.promotedPages = 100
	c.thrashEvents = 30
	c.semiAutoTick(k.clock.Now())
	if math.Abs(c.rateLimitBps-before/2) > 1e-6 {
		t.Fatalf("rate limit %v, want halved %v", c.rateLimitBps, before/2)
	}
	// Below the threshold: unchanged.
	before = c.rateLimitBps
	c.promotedPages = 100
	c.thrashEvents = 10
	c.semiAutoTick(k.clock.Now())
	if c.rateLimitBps != before {
		t.Fatal("rate limit changed below thrash threshold")
	}
}

func TestThrashDetectionOnDemotedPage(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.FastTier, 1)
	// Chrono observes the demotion (kernel or its own) via OnMigrated.
	k.TryDemote(pg)
	c.OnMigrated(pg, mem.FastTier, mem.SlowTier)
	if !pg.Flags.Has(vm.FlagDemoted) {
		t.Fatal("demoted flag not set")
	}
	if !pg.Flags.Has(vm.FlagProtNone) {
		t.Fatal("demoted page not immediately poisoned")
	}
	// The page re-qualifies quickly: a thrash event.
	k.advance(50 * simclock.Millisecond)
	k.fault(c, pg)
	if c.ThrashTotal != 1 {
		t.Fatalf("ThrashTotal=%d", c.ThrashTotal)
	}
	if pg.Flags.Has(vm.FlagDemoted) {
		t.Fatal("demoted flag not cleared after evaluation")
	}
}

func TestCITBuckets(t *testing.T) {
	c := New(Options{})
	cases := map[float64]int{
		0: 0, 0.5: 0, 1: 1, 1.9: 1, 2: 2, 3.9: 2, 4: 3, 1000: 10,
	}
	for cit, want := range cases {
		if got := c.citBucket(cit); got != want {
			t.Fatalf("citBucket(%v)=%d, want %d", cit, got, want)
		}
	}
	// Clamps into the last bucket.
	if got := c.citBucket(1e30); got != BBuckets-1 {
		t.Fatalf("huge CIT bucket %d", got)
	}
	if c.BucketUpperMS(3) != 8 {
		t.Fatalf("BucketUpperMS(3)=%v", c.BucketUpperMS(3))
	}
}

func TestProbeTwoRoundMax(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.SlowTier, 1)
	pg.Flags |= vm.FlagProbed
	pg.Meta2 = 0
	k.Protect(pg)

	// Round 1: CIT 10 ms; page must be re-poisoned.
	k.advance(10 * simclock.Millisecond)
	k.fault(c, pg)
	if !pg.Flags.Has(vm.FlagProbed) || !pg.Flags.Has(vm.FlagProtNone) {
		t.Fatal("probe round 1 did not re-poison")
	}
	if c.DCSCSamples != 0 {
		t.Fatal("sample recorded after one round")
	}

	// Round 2: CIT 40 ms; max(10, 40) = 40 ms lands in bucket 6.
	k.advance(40 * simclock.Millisecond)
	k.fault(c, pg)
	if c.DCSCSamples != 1 {
		t.Fatalf("DCSCSamples=%d", c.DCSCSamples)
	}
	if pg.Flags.Has(vm.FlagProbed) {
		t.Fatal("probe flag not cleared after round 2")
	}
	hm := c.HeatMap(mem.SlowTier)
	if hm[6] != 1 { // 40ms in [32,64) = bucket 6
		t.Fatalf("heat map: %v", hm[:8])
	}
}

func TestProbeHugeRedistribution(t *testing.T) {
	c, _ := attach(t, quietOptions())
	huge := &vm.Page{ID: 99, Size: 64, Flags: vm.FlagHuge, Tier: mem.SlowTier, Proc: nil}
	// A 64-page huge sample at bucket 2 (CIT 2ms) counts as 64 pages at
	// bucket 2+6 (= log2(64)).
	c.recordSample(huge, 2)
	hm := c.HeatMap(mem.SlowTier)
	if hm[8] != 64 {
		t.Fatalf("huge redistribution: %v", hm[:12])
	}
}

func TestProbeExpiry(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.SlowTier, 1)
	pg.Flags |= vm.FlagProbed
	k.Protect(pg)
	c.probes = append(c.probes, probe{id: pg.ID, stamp: k.clock.Now()})

	// Not yet expired.
	k.advance(probeExpiry / 2)
	c.expireProbes(k.clock.Now())
	if len(c.probes) != 1 || c.DCSCSamples != 0 {
		t.Fatal("probe expired early")
	}

	// Expired: recorded as cold, flag cleared, unprotected.
	k.advance(probeExpiry)
	c.expireProbes(k.clock.Now())
	if len(c.probes) != 0 {
		t.Fatal("expired probe not removed")
	}
	if c.DCSCSamples != 1 {
		t.Fatal("expired probe not recorded")
	}
	if pg.Flags.Has(vm.FlagProbed) || pg.Flags.Has(vm.FlagProtNone) {
		t.Fatal("expired probe left flags set")
	}
}

func TestDCSCTuneOverlap(t *testing.T) {
	c, k := attach(t, quietOptions())
	// Occupy the fake node: 1000 fast used, 3000 slow used.
	k.node.Alloc(mem.FastTier, 1000-k.node.Used(mem.FastTier))
	k.node.Alloc(mem.SlowTier, 3000-k.node.Used(mem.SlowTier))

	// Synthetic heat maps: fast tier all hot (bucket 2); slow tier has
	// 600-page-equivalent hot mass at bucket 2 and cold mass at bucket 20.
	c.heat[mem.FastTier][2] = 100
	c.samples[mem.FastTier] = 100
	c.heat[mem.SlowTier][2] = 20 // 20/100 of 3000 = 600 hot-in-slow
	c.heat[mem.SlowTier][20] = 80
	c.samples[mem.SlowTier] = 100

	c.dcscTune(k.clock.Now())

	// Cumulative crosses fastCap (1000) inside bucket 2 (1000 fast + 600
	// slow): fraction = 1000/1600, threshold interpolates geometrically
	// from the bucket's lower bound: 2 × 2^(1000/1600) ms.
	want := 2 * math.Pow(2, 1000.0/1600)
	if got := c.ThresholdMS(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("threshold %v, want %v", got, want)
	}
	// Misplacement: 600 pages × 4096 B / 60 s ≈ 41 kB/s, smoothed 50/50
	// with the previous 100 MB/s.
	wantLimit := 0.5*100e6 + 0.5*(600*4096/c.scan.Config().Period.Seconds())
	if math.Abs(c.rateLimitBps-wantLimit)/wantLimit > 1e-6 {
		t.Fatalf("rate limit %v, want %v", c.rateLimitBps, wantLimit)
	}
	// Heat maps decayed.
	if c.samples[mem.FastTier] != 50 {
		t.Fatalf("samples not decayed: %v", c.samples[mem.FastTier])
	}
}

func TestDCSCTuneNoSamples(t *testing.T) {
	c, k := attach(t, quietOptions())
	before := c.ThresholdMS()
	c.dcscTune(k.clock.Now())
	if c.ThresholdMS() != before {
		t.Fatal("tuning without samples changed the threshold")
	}
}

func TestStatScanMarksVictims(t *testing.T) {
	opt := quietOptions()
	opt.PVictim = 0.5
	c, k := attach(t, opt)
	for i := 0; i < 99; i++ {
		k.addPage(mem.SlowTier, 1)
	}
	c.statScan(k.clock.Now())
	probed := 0
	for _, pg := range k.pages {
		if pg.Flags.Has(vm.FlagProbed) {
			probed++
			if !pg.Flags.Has(vm.FlagProtNone) {
				t.Fatal("probed page not poisoned")
			}
		}
	}
	if probed == 0 || probed > 50 {
		t.Fatalf("probed %d of 100 pages at P=0.5", probed)
	}
	if len(c.probes) != probed {
		t.Fatalf("probe list %d != probed %d", len(c.probes), probed)
	}
}

func TestDemotionTickProWatermark(t *testing.T) {
	c, k := attach(t, quietOptions())
	// Fill fast tier completely.
	k.node.Alloc(mem.FastTier, k.node.Free(mem.FastTier))
	var victims []*vm.Page
	for i := 0; i < 50; i++ {
		pg := k.addPage(mem.SlowTier, 1) // backing store for realism
		pg.Tier = mem.FastTier           // pretend they're fast-resident
		victims = append(victims, pg)
	}
	k.inactiveTail = victims
	k.demoteOK = func(pg *vm.Page) bool {
		// fake Demote moves accounting from fast; but we allocated them
		// in slow, so just flip the tier.
		pg.Tier = mem.SlowTier
		k.node.FreePages(mem.FastTier, 1)
		k.demotes = append(k.demotes, pg)
		return false // skip fakeKernel's own move
	}
	c.demotionTick(k.clock.Now())
	pro := k.node.Watermarks(mem.FastTier).Pro
	high := k.node.Watermarks(mem.FastTier).High
	if pro <= high {
		t.Fatalf("pro watermark %d not raised above high %d", pro, high)
	}
	if len(k.demotes) == 0 {
		t.Fatal("no demotions under watermark pressure")
	}
}

func TestSysctlRegistration(t *testing.T) {
	c, k := attach(t, quietOptions())
	if err := k.Sysctl().Set("chrono/cit_threshold_ms", "250"); err != nil {
		t.Fatal(err)
	}
	if c.ThresholdMS() != 250 {
		t.Fatalf("sysctl write not applied: %v", c.ThresholdMS())
	}
	if err := k.Sysctl().Set("chrono/cit_threshold_ms", "-5"); err == nil {
		t.Fatal("negative threshold accepted")
	}

	// Every knob rejects NaN, infinities, zero and negatives; the two
	// fractions reject values past their range. A rejected write leaves
	// the value as it was.
	bad := map[string][]string{
		"chrono/cit_threshold_ms": {"NaN", "Inf", "+Inf", "-Inf", "0", "-0"},
		"chrono/rate_limit_bps":   {"NaN", "Inf", "-Inf", "0", "-1"},
		"chrono/delta_step":       {"NaN", "Inf", "0", "1", "5", "-0.5"},
		"chrono/p_victim":         {"NaN", "Inf", "0", "1.0001", "1e6", "-0"},
		"chrono/thrash_threshold": {"NaN", "Inf", "0", "-0.2"},
	}
	for key, vals := range bad {
		before, _ := k.Sysctl().Get(key)
		for _, v := range vals {
			if err := k.Sysctl().Set(key, v); err == nil {
				t.Errorf("%s=%s accepted", key, v)
			}
			if after, _ := k.Sysctl().Get(key); after != before {
				t.Errorf("%s=%s rejected but the value changed %s -> %s", key, v, before, after)
			}
		}
	}
	good := map[string]string{
		"chrono/cit_threshold_ms": "1e9",
		"chrono/rate_limit_bps":   "5e8",
		"chrono/delta_step":       "0.99",
		"chrono/p_victim":         "1",
		"chrono/thrash_threshold": "3",
	}
	for key, v := range good {
		if err := k.Sysctl().Set(key, v); err != nil {
			t.Errorf("%s=%s rejected: %v", key, v, err)
		}
	}
	if c.deltaStep != 0.99 || c.pVictim != 1 || c.thrashThreshold != 3 || c.rateLimitBps != 5e8 {
		t.Fatalf("writes not applied: δ %v p_victim %v thrash %v rate %v",
			c.deltaStep, c.pVictim, c.thrashThreshold, c.rateLimitBps)
	}
}

// TestRestoreRejectsOutOfRangeKnobs: a checkpoint carrying a knob the
// sysctl would refuse (p_victim 1e6 makes each DCSC scan draw a million
// victims per page) fails to restore instead of wedging the run.
func TestRestoreRejectsOutOfRangeKnobs(t *testing.T) {
	c, _ := attach(t, quietOptions())
	for _, tc := range []struct {
		key string
		v   any
	}{
		{"p_victim", 1e6},
		{"p_victim", 0},
		{"delta_step", 5},
		{"thrash_threshold", -1},
		{"threshold_ms", 0},
		{"rate_limit_bps", -1e8},
	} {
		fresh, _ := attach(t, quietOptions())
		if err := fresh.RestoreCheckpoint(policytest.StateWith(t, c, tc.key, tc.v)); err == nil {
			t.Errorf("%s=%v restored without error", tc.key, tc.v)
		}
	}
	fresh, _ := attach(t, quietOptions())
	if err := fresh.RestoreCheckpoint(policytest.StateWith(t, c, "p_victim", 0.01)); err != nil {
		t.Fatalf("in-range checkpoint: %v", err)
	}
}

func TestHistoriesRecorded(t *testing.T) {
	c, _ := attach(t, quietOptions())
	if c.ThresholdHist.Len() == 0 || c.RateLimitHist.Len() == 0 {
		t.Fatal("initial history points missing")
	}
}

func TestQueueBoundDropsOverflow(t *testing.T) {
	opt := quietOptions()
	opt.RateLimitMBps = 0.001 // tiny: the queue bound floors at 64
	// A realistic scan period so the queue bound (rate × period) is
	// small; the test stays well inside the first period.
	opt.Scan = scan.Config{Period: simclock.Minute, StepPages: 1}
	c, k := attach(t, opt)
	for i := 0; i < 200; i++ {
		pg := k.addPage(mem.SlowTier, 1)
		k.Protect(pg)
		k.advance(10 * simclock.Millisecond)
		k.fault(c, pg) // round 1
		k.Protect(pg)
		k.advance(10 * simclock.Millisecond)
		k.fault(c, pg) // round 2: submission
	}
	if c.QueueLen() > c.maxQueueLen() {
		t.Fatalf("queue %d exceeds bound %d", c.QueueLen(), c.maxQueueLen())
	}
	if c.QueueDropped == 0 {
		t.Fatal("no submissions dropped despite overflow")
	}
	if c.Enqueued != 200 {
		t.Fatalf("Enqueued=%d; demand accounting must include drops", c.Enqueued)
	}
}

func TestLargeFoldThresholdScaling(t *testing.T) {
	// §3.4's 1 GB case: TH_1GB = TH_4KB / (512*512). At any fold the
	// effective threshold divides by the page size.
	c, k := attach(t, quietOptions())
	big := k.addPage(mem.SlowTier, 512)
	want := c.ThresholdMS() / 512
	if got := c.effectiveThresholdMS(big); math.Abs(got-want) > 1e-12 {
		t.Fatalf("fold-512 threshold %v, want %v", got, want)
	}
}

func TestLargeFoldBucketRedistribution(t *testing.T) {
	c, _ := attach(t, quietOptions())
	big := &vm.Page{ID: 7, Size: 512, Flags: vm.FlagHuge, Tier: mem.SlowTier}
	// Bucket 3 + log2(512) = bucket 12, weight 512.
	c.recordSample(big, 5) // 5 ms -> bucket 3
	hm := c.HeatMap(mem.SlowTier)
	if hm[12] != 512 {
		t.Fatalf("fold-512 redistribution: %v", hm[10:14])
	}
}

func TestExpireCandidates(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.SlowTier, 1)
	k.Protect(pg)
	k.advance(20 * simclock.Millisecond)
	k.fault(c, pg) // becomes a candidate
	if c.Candidates() != 1 {
		t.Fatal("setup: no candidate")
	}
	// Within two scan periods: kept.
	k.advance(c.scan.Config().Period)
	c.expireCandidates(k.clock.Now())
	if c.Candidates() != 1 {
		t.Fatal("candidate expired early")
	}
	// Beyond two scan periods: dropped and flag cleared.
	k.advance(2 * c.scan.Config().Period)
	c.expireCandidates(k.clock.Now())
	if c.Candidates() != 0 {
		t.Fatal("stale candidate not expired")
	}
	if pg.Flags.Has(vm.FlagCandidate) {
		t.Fatal("FlagCandidate not cleared on expiry")
	}
}

func TestDemotionGapFollowsRateLimit(t *testing.T) {
	c, k := attach(t, quietOptions())
	// gap = 2 * scanPeriod * rateLimit / pageSize, bounded by cap/8.
	c.rateLimitBps = 50e6 // at CostScale 1, pageSize 4096
	c.demotionTick(k.clock.Now())
	wm := k.node.Watermarks(mem.FastTier)
	wantGap := int64(2 * c.scan.Config().Period.Seconds() * 50e6 / 4096)
	maxGap := k.node.Capacity(mem.FastTier) / 8
	if wantGap > maxGap {
		wantGap = maxGap
	}
	if wm.Pro != wm.High+wantGap {
		t.Fatalf("pro watermark gap %d, want %d", wm.Pro-wm.High, wantGap)
	}
}

func TestCITObserverReceivesScaledValues(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.SlowTier, 1)
	var seen []float64
	c.SetCITObserver(func(_ *vm.Page, citMS float64) { seen = append(seen, citMS) })
	k.Protect(pg)
	k.advance(123 * simclock.Millisecond)
	k.fault(c, pg)
	// fakeKernel's CostScale is 1, so the observed CIT equals the gap.
	if len(seen) != 1 || math.Abs(seen[0]-123) > 1e-9 {
		t.Fatalf("observer saw %v, want [123]", seen)
	}
}

func TestThrashHalvingRespectsFloor(t *testing.T) {
	c, k := attach(t, quietOptions())
	c.rateLimitBps = 20e6
	for i := 0; i < 10; i++ {
		c.promotedPages = 100
		c.thrashEvents = 90
		c.semiAutoTick(k.clock.Now())
	}
	if c.rateLimitBps < 16e6 {
		t.Fatalf("rate limit %v below the floor", c.rateLimitBps)
	}
}

func TestNumaTieringToggleDisablesChrono(t *testing.T) {
	opt := quietOptions()
	opt.Scan = scan.Config{Period: simclock.Second, StepPages: 4}
	c, k := attach(t, opt)
	var enabled int64 = 1
	k.Sysctl().Int64("kernel/numa_tiering", "toggle", &enabled, nil, nil)
	for i := 0; i < 8; i++ {
		k.addPage(mem.SlowTier, 1)
	}
	// Disabled: the ticking scan must not poison anything.
	enabled = 0
	k.advance(3 * simclock.Second)
	if len(k.protects) != 0 {
		t.Fatalf("%d pages poisoned while numa_tiering=0", len(k.protects))
	}
	// Re-enabled: scanning resumes.
	enabled = 1
	k.advance(3 * simclock.Second)
	if len(k.protects) == 0 {
		t.Fatal("scan did not resume after numa_tiering=1")
	}
	_ = c
}
