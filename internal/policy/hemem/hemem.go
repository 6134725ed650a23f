// Package hemem implements the HeMem baseline (Raybuck et al., SOSP '21):
// PEBS-driven tiering with *fixed* classification thresholds, the design
// the paper contrasts with Memtis's histogram and Chrono's dynamic CIT
// statistics (§2.3: "HeMem utilizes PEBS counters to represent the memory
// access frequency and classify hot and cold pages based on fixed
// thresholds").
//
// A page whose sample counter reaches HotThreshold is promoted; fast-tier
// pages whose counter stays below ColdThreshold are demotion candidates
// under watermark pressure. Counters cool periodically. Because the
// thresholds never adapt, the classification quality depends entirely on
// how well the constants happen to match the workload — HeMem's known
// limitation.
package hemem

import (
	"encoding/json"
	"sort"

	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// Config holds HeMem's tunables.
type Config struct {
	// SampleRate is the PEBS budget (0 = scale-derived default shared
	// with Memtis).
	SampleRate units.Hz
	// SamplePeriod is the DS-area drain interval (default 1 s).
	SamplePeriod simclock.Duration
	// HotThreshold is the fixed sample count above which a page is hot
	// (HeMem's default is in the 2^5..2^15 band the paper cites; 8 at
	// the simulator's scaled budget).
	HotThreshold uint32
	// ColdThreshold is the count at or below which a fast page is a
	// demotion candidate (default 1).
	ColdThreshold uint32
	// CoolingPeriods is the sample periods between counter halvings
	// (default 8).
	CoolingPeriods int
	// MigratePeriod is the background migration cycle (default 2 s).
	MigratePeriod simclock.Duration
	// MigrateBatch caps page moves per cycle (default fast/32).
	MigrateBatch int
}

func (c Config) withDefaults() Config {
	if c.SamplePeriod == 0 {
		c.SamplePeriod = simclock.Second
	}
	if c.HotThreshold == 0 {
		c.HotThreshold = 8
	}
	if c.ColdThreshold == 0 {
		c.ColdThreshold = 1
	}
	if c.CoolingPeriods == 0 {
		c.CoolingPeriods = 8
	}
	if c.MigratePeriod == 0 {
		c.MigratePeriod = 2 * simclock.Second
	}
	return c
}

// Policy is the HeMem baseline.
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base               //chrono:rebuilt stateless method set
	cfg         Config        //chrono:rebuilt configuration, finalized in Attach
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach
	sampler     *pebs.Sampler //chrono:state Sampler
	periods     int           //chrono:state Periods
}

// New returns a HeMem policy.
func New(cfg Config) *Policy { return &Policy{cfg: cfg.withDefaults()} }

// Name implements policy.Policy.
func (p *Policy) Name() string { return "HeMem" }

// Sampler exposes the PEBS sampler for tests.
func (p *Policy) Sampler() *pebs.Sampler { return p.sampler }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	if p.cfg.SampleRate == 0 {
		p.cfg.SampleRate = units.Hz(100000 * 512 / (float64(k.HugeFactor()) * k.CostScale()))
		if p.cfg.SampleRate < 10 {
			p.cfg.SampleRate = 10
		}
	}
	if p.cfg.MigrateBatch == 0 {
		p.cfg.MigrateBatch = int(k.Node().Capacity(mem.FastTier) / 32)
		if p.cfg.MigrateBatch < k.HugeFactor() {
			p.cfg.MigrateBatch = k.HugeFactor()
		}
	}
	p.sampler = pebs.NewSampler(k.RNG(), p.cfg.SampleRate)
	p.sampler.Grow(len(k.Pages()))
	k.Clock().EveryKey("hemem/sample", p.cfg.SamplePeriod, func(now simclock.Time) {
		k.SamplePEBS(p.sampler, units.SecondsOf(p.cfg.SamplePeriod))
		p.periods++
		if p.periods%p.cfg.CoolingPeriods == 0 {
			p.sampler.Cool()
		}
	})
	k.Clock().EveryKey("hemem/migrate", p.cfg.MigratePeriod, func(now simclock.Time) {
		p.migrate()
	})
}

// checkpointState is HeMem's serializable dynamic state: the PEBS
// counters and the sample-period count that paces cooling.
type checkpointState struct {
	Sampler pebs.SamplerState `json:"sampler"`
	Periods int               `json:"periods"`
}

// CheckpointState implements policy.Policy.
func (p *Policy) CheckpointState() (any, error) {
	return checkpointState{Sampler: p.sampler.State(), Periods: p.periods}, nil
}

// RestoreCheckpoint implements policy.Policy.
func (p *Policy) RestoreCheckpoint(data []byte) error {
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	p.sampler.SetState(st.Sampler)
	p.periods = st.Periods
	return nil
}

// OnPageFreed implements policy.Policy.
func (p *Policy) OnPageFreed(pg *vm.Page) { p.sampler.Clear(pg.ID) }

// migrate applies the fixed-threshold classification.
func (p *Policy) migrate() {
	var hotSlow, coldFast []*vm.Page
	for _, pg := range p.k.Pages() {
		if pg == nil {
			continue
		}
		c := p.sampler.Counter(pg.ID)
		switch {
		case pg.Tier == mem.SlowTier && c >= p.cfg.HotThreshold:
			hotSlow = append(hotSlow, pg)
		case pg.Tier == mem.FastTier && c <= p.cfg.ColdThreshold:
			coldFast = append(coldFast, pg)
		}
	}
	sort.Slice(hotSlow, func(i, j int) bool {
		return p.sampler.Counter(hotSlow[i].ID) > p.sampler.Counter(hotSlow[j].ID)
	})
	sort.Slice(coldFast, func(i, j int) bool {
		return p.sampler.Counter(coldFast[i].ID) < p.sampler.Counter(coldFast[j].ID)
	})

	_, coldFast, _ = policy.Exchange(p.k, hotSlow, coldFast, p.cfg.MigrateBatch, 1)
	// Watermark maintenance: drain remaining cold pages under pressure.
	node := p.k.Node()
	for node.BelowHigh(mem.FastTier) && len(coldFast) > 0 {
		p.k.TryDemote(coldFast[0])
		coldFast = coldFast[1:]
	}
}

// OnFault implements policy.Policy. HeMem does not poison pages.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {}
