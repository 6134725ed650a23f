// Package engine is the discrete-event tiered-memory simulator that stands
// in for the paper's Linux kernel + DRAM/Optane testbed (see DESIGN.md §1
// for the substitution argument).
//
// # Access model
//
// The workload assigns every base page an access weight and a read
// fraction. Each process runs a closed loop: every access costs app CPU
// work, the configured pmbench-style delay, and the memory latency of the
// page's current tier; the process's aggregate access rate therefore
// *increases* as its hot pages move to the fast tier, reproducing the
// feedback that turns good placement into throughput. Per-page access
// rates are the process rate split proportionally to page weights.
//
// Page accesses are not simulated individually. Instead:
//
//   - Hint faults: when a policy poisons a page (PROT_NONE), the time to
//     the page's next access is drawn from Uniform(0, 1/rate) — the
//     periodic-access model with random phase that the paper's Appendix B
//     analyses — and a fault event is scheduled. The captured idle time
//     observed by Chrono is exactly this gap.
//   - Accessed bits: a test-and-clear is answered with a Bernoulli draw of
//     the probability that at least one access arrived since the last
//     clear.
//   - PEBS: samples are drawn from the true page-rate distribution under a
//     capped budget (internal/pebs).
//   - Latency/throughput: per epoch, the per-tier access masses accumulate
//     into latency histograms, including fault and migration penalties.
//
// All randomness flows from one seed; a run is exactly reproducible.
package engine

import (
	"fmt"
	"slices"

	"chrono/internal/faultinject"
	"chrono/internal/lru"
	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/stats"
	"chrono/internal/sysctl"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// Config parameterizes a simulation run. Everything else about the
// simulated machine is fixed: the device and kernel-cost constants below
// describe the paper's one testbed (DESIGN.md lists each with its source).
type Config struct {
	// Seed drives all randomness. Same seed, same results.
	Seed uint64

	// PagesPerGB scales physical sizes down: a simulated "GB" is this
	// many base pages. All capacity *ratios* are preserved. Default 256.
	// It also fixes CostScale (see Engine.CostScale).
	PagesPerGB int64
	// FastGB and SlowGB size the tiers (defaults 64 and 192, the paper's
	// testbed: 4×16 GB DRAM + 2×128 GB Optane at ~25% fast ratio).
	FastGB units.GB
	SlowGB units.GB

	// HugeFactor is the number of simulated base pages folded into one
	// "huge page" under HugePages mapping. Real x86 folds 512×4 KB into
	// 2 MB; since one simulated page already stands for CostScale real
	// pages, the simulator uses a smaller factor (default 64) that
	// preserves the *relative* coarsening and the hotness-fragmentation
	// behaviour the paper analyses (§2.3, §3.4). Chrono's huge-page
	// threshold/bucket scaling uses the actual fold factor.
	HugeFactor int

	// DebugChecks enables the invariant sanitizer (see sanitize.go): the
	// engine validates page-table/LRU/watermark/migration consistency
	// after every metric epoch and at the end of Run, panicking on the
	// first violation. Building with -tags simdebug forces this on for
	// every engine regardless of the flag.
	DebugChecks bool

	// Faults configures deterministic fault injection (see
	// internal/faultinject): transient migration aborts, allocation
	// failures near watermarks, PEBS overflow windows, delayed hint
	// faults. The zero value disables the subsystem entirely — no
	// injector is built, no extra RNG draws happen, and runs are
	// byte-identical to an engine without it.
	Faults faultinject.Plan

	// Deprecated: ignored; the engine has one fault queue.
	Shards int
}

// EpochNS is the metric accounting step: rates, latency histograms,
// bandwidth contention and the migration token bucket advance once per
// epoch.
const EpochNS simclock.Duration = 250 * simclock.Millisecond

// thrashWindowNS is the promote→demote round-trip window counted as
// thrash by the wasted-bandwidth metrics (ThrashDemotions/ThrashBytes):
// one scan period, the natural reaction timescale of the fault-based
// policies.
const thrashWindowNS = 60 * simclock.Second

// The kernel cost model, in virtual nanoseconds per real 4 KB page or
// operation. Charges multiply them by CostScale, so kernel-time fractions
// stay in real units at any capacity scale-down.
const (
	cpuWorkNS        units.NS = 130  // per-access app work outside memory
	faultKernelNS    units.NS = 1900 // kernel time per hint fault
	faultLatencyNS   units.NS = 3600 // extra latency seen by a faulting access
	scanPageNS       units.NS = 130  // kernel time per page scanned/poisoned
	migrateFixedNS   units.NS = 1500 // kernel time per migration operation
	migratePerPageNS units.NS = 350  // kernel time per base page migrated
	aBitTestNS       units.NS = 25   // kernel time per accessed-bit test
)

// contextSwitchIdleHz is the baseline scheduler context-switch rate per
// process, before hint faults add their own.
const contextSwitchIdleHz units.Hz = 1.2

// PEBS alias-table rebuild periods, in virtual seconds. An unchanged
// table is refreshed every pebsAliasRebuildS; a weight change marks it
// stale, but the O(pages) rebuild waits until the table is at least
// pebsAliasMinRebuildS old. Structural changes (pages created or freed)
// always rebuild before the next sample.
const (
	pebsAliasRebuildS    units.Sec = 10
	pebsAliasMinRebuildS units.Sec = 1
)

// migrationBWBytes caps the sustainable page-migration throughput in
// bytes/second of real traffic (the kernel migrate_pages path: unmap +
// copy + TLB shootdown, contending with demand traffic on the slow
// media). Migrations beyond the budget fail and must be retried — exactly
// how synchronous NUMA-fault promotion behaves under pressure.
const migrationBWBytes units.BytesPerSec = 1.2e9

// withDefaults fills zero fields with defaults and returns cfg.
func (cfg Config) withDefaults() Config {
	if cfg.PagesPerGB == 0 {
		cfg.PagesPerGB = 256
	}
	if cfg.FastGB == 0 {
		cfg.FastGB = 64
	}
	if cfg.SlowGB == 0 {
		cfg.SlowGB = 192
	}
	if cfg.HugeFactor == 0 {
		cfg.HugeFactor = 64
	}
	return cfg
}

// procState is the engine-side view of one process.
type procState struct {
	proc    *vm.Process
	threads int

	// Aggregate access masses by tier and op, maintained incrementally:
	// wRead[t] = Σ w_i·rf_i over pages in tier t, wWrite analogous.
	wRead  [mem.NumTiers]float64
	wWrite [mem.NumTiers]float64
	wTot   float64

	// rate is accesses/second this epoch.
	rate float64
	// faultOverheadNS is the EMA of per-access fault-handling overhead.
	faultOverheadNS float64
	// epochFaults counts hint faults taken this epoch.
	epochFaults float64

	// residentFast/Slow count resident base pages per tier;
	// residentSwap counts pages reclaimed to backing storage.
	residentFast int64
	residentSlow int64
	residentSwap int64

	// wSwap is the access-weight mass of swapped pages (served at
	// SwapLatencyNS in the closed-loop model).
	wSwap float64
}

// Rate returns the process's current access rate (accesses/second).
func (ps *procState) Rate() float64 { return ps.rate }

// Engine is one simulation instance.
//
// The //chrono:state and //chrono:rebuilt directives below are the
// checkpoint-coverage fence (enforced by the statesync linter): every
// field is either mapped to the EngineState field(s) that serialize it or
// justified as rebuilt by a fresh New+Build+Attach, and every EngineState
// field must be backed by some mapping.
//
//chrono:statesync EngineState
type Engine struct {
	cfg       Config          //chrono:rebuilt construction-time configuration; immutable after New
	costScale float64         //chrono:rebuilt derived from Config.PagesPerGB by New
	clock     *simclock.Clock //chrono:state Clock
	node      *mem.Node       //chrono:state Node
	table     *sysctl.Table   //chrono:rebuilt sysctl registrations are code-defined; writable values live in numaTiering and the policy state

	rMaster   *rng.Source //chrono:state RMaster
	rFault    *rng.Source //chrono:state RFault
	rPolicy   *rng.Source //chrono:state RPolicy
	rWorkload *rng.Source //chrono:state RWorkload
	rPEBS     *rng.Source //chrono:state RPEBS

	//chrono:state Pages
	pages []*vm.Page // dense by ID; nil after free
	//chrono:state Pages
	pageW []float64 // the W column: cached page weight (sum over covered base pages)
	//chrono:state Pages
	pageRF []float64 // the RF column: cached weighted read fraction
	//chrono:state Pages
	everSlow []bool // sparse EverSlow set: page was ever resident in the slow tier
	//chrono:state Pages
	everPromoted []bool             // sparse EverPromoted set: page was promoted at least once
	procs        []*procState       //chrono:state Procs
	byPID        map[int]*procState //chrono:rebuilt index over procs, rebuilt by AddProcess during Build

	// arena is the chunk new pages are carved from (newPage).
	arena []vm.Page //chrono:rebuilt page storage behind pages; Build and restorePages carve every page from it
	// pageGen is the page-set generation: it advances whenever a page is
	// created or freed, so a policy may keep a grouping of the page table
	// until it changes (PageGeneration).
	pageGen uint64 //chrono:rebuilt not simulation state; restorePages advances it

	// Nomad-style transactional shadow state (kernel.go): a shadowed page
	// is fast-tier resident while its old slow-tier frames are retained as
	// a clean copy, making a later clean demotion a zero-copy remap. The
	// arrays grow lazily (growShadow) — engines that never promote
	// transactionally keep them empty.
	//
	//chrono:state Pages
	shadowed []bool // sparse Shadowed column: page holds a slow-tier shadow copy
	//chrono:state Pages
	shadowTS []simclock.Time // shadow cut time, parallel to shadowed
	// shadowFIFO orders live shadows by creation for capacity reclaim
	// (oldest dropped first); consumed/dropped entries go stale in place
	// and are skipped on pop.
	shadowFIFO []int64 //chrono:state ShadowFIFO
	// shadowBase counts slow-tier base pages held by live shadows.
	shadowBase int64 //chrono:state ShadowBase
	// rShadow draws abort-on-write and shadow-dirtiness decisions. Seeded
	// by hash, not forked from rMaster, so its existence perturbs no other
	// stream; it advances only when transactional migration is used.
	rShadow *rng.Source //chrono:state RShadow

	// patternRestore lists processes whose workload rewrites their access
	// pattern during the run (EnablePatternRestore). The snapshot carries
	// their pattern arrays verbatim so dynamic (phase-changing) workloads
	// resume bit-identically; the registrations are re-made by Build.
	patternRestore []*vm.Process //chrono:state Patterns

	pol   policy.Policy   //chrono:state PolicyName,Policy
	admit policy.Admitter //chrono:rebuilt the attached policy's promotion hook, re-asserted by AttachPolicy

	// Kernel LRU (active/inactive per tier) maintained on faults and by
	// periodic aging; source of reclaim/demotion candidates.
	links *lru.Links                 //chrono:rebuilt LRU link storage; regrown by restorePages and refilled by KLRU SetState
	kLRU  [mem.NumTiers]*lru.TwoList //chrono:state KLRU

	// epoch accumulators
	epochMigBytes float64 //chrono:state EpochMigBytes
	kernelNSEpoch float64 //chrono:state KernelNSEpoch
	kernelFrac    float64 //chrono:state KernelFrac
	// migTokens is the migration token bucket (bytes), refilled per epoch
	// at migrationBWBytes; migrations fail when it runs dry.
	migTokens float64 //chrono:state MigTokens
	// Bandwidth-driven latency inflation (see metrics.go).
	slowUtilEMA float64 //chrono:state SlowUtilEMA
	fastUtilEMA float64 //chrono:state FastUtilEMA
	slowLatMult float64 //chrono:state SlowLatMult
	fastLatMult float64 //chrono:state FastLatMult

	// PEBS alias cache. Weight-staleness (pattern drift) tolerates a
	// rate-limited rebuild; structural staleness (pages created or freed)
	// must rebuild before the next sample or freed IDs would be drawn.
	//
	//chrono:state HasAlias
	aliasTable *rng.Alias // contents rebuilt from AliasW on restore
	aliasIDs   []int64    //chrono:state AliasIDs
	//chrono:state AliasW
	aliasW           []float64     // scratch reused across rebuilds
	aliasBuiltAt     simclock.Time //chrono:state AliasBuiltAt
	aliasWeightDirty bool          //chrono:state AliasWeightDirty
	aliasStructural  bool          //chrono:state AliasStructural

	// faultQ holds the materialized hint-fault timers and pendingProts the
	// deferred Protects awaiting their gap draw (see faults.go for the
	// determinism argument).
	faultQ       simclock.ShardQueue //chrono:state PendingFaults
	pendingProts []pendingProt       //chrono:state PendingProts
	// faultSeed keys the stateless per-(page, seq) fault-gap hash, derived
	// from Config.Seed only.
	faultSeed uint64 //chrono:rebuilt derived from Config.Seed by New

	// flushMark/flushList are scratch for FlushPattern's page dedup,
	// reused across calls (flushMark is indexed by page ID).
	flushMark []bool  //chrono:rebuilt scratch buffer, dead between events
	flushList []int64 //chrono:rebuilt scratch buffer, dead between events

	// numaTiering mirrors the sysctl toggle; policies may consult it.
	numaTiering int64 //chrono:state NumaTiering

	// sanitize enables the per-epoch invariant checks (sanitize.go).
	sanitize bool //chrono:rebuilt derived from Config and build tags

	// inj draws fault-injection decisions; nil (the common case) means
	// no injection and is handled by faultinject's nil-safe methods.
	inj *faultinject.Injector //chrono:state Inj

	// runTickers holds the engine's own periodic work (epoch accounting,
	// LRU aging, kswapd, cgroup reclaim) while a run is in flight, so
	// finishRun can cancel it and a Restore can find it registered.
	runTickers []*simclock.Ticker //chrono:rebuilt re-armed by startTickers inside Restore
	// engTickers caches the ticker objects across Run calls: keyed tickers
	// keep their registry slot through Cancel/Restart, so repeated runs
	// re-arm the same four tickers instead of allocating fresh ones.
	engTickers []*simclock.Ticker //chrono:rebuilt ticker cache, re-armed by startTickers

	horizon simclock.Time //chrono:state Horizon

	M Metrics //chrono:state Metrics

	// EpochHook, if set, runs at the end of every metric epoch (used by
	// the harness to sample time series such as Figure 9's placement
	// history).
	EpochHook func(now simclock.Time) //chrono:rebuilt harness closure; the harness reattaches it before ResumeRun
}

// Metrics aggregates a run's results.
type Metrics struct {
	Duration simclock.Time

	Accesses     float64
	FastAccesses float64
	Reads        float64
	Writes       float64

	Faults          float64
	Promotions      int64
	Demotions       int64
	SwapOuts        int64
	SwapIns         int64
	MigratedBytes   float64
	ContextSwitches float64

	KernelNS float64
	AppNS    float64

	// Robustness accounting: migration attempts aborted by transient
	// faults (busy/pinned page, watermark allocation failure), the
	// kernel time those aborts burned, PEBS samples lost to overflow
	// windows, and moveTier accounting errors recovered in release
	// builds (always 0 in a healthy simulator).
	FailedPromotions   int64
	FailedDemotions    int64
	AbortedMigrationNS float64
	PEBSDropped        float64
	MoveTierErrors     int64

	// Thrash accounting (every policy): promotions of pages that had been
	// demoted before, demotions landing within one epoch of the page's
	// promotion, and the migration bytes wasted on those round trips.
	RePromotions    int64
	ThrashDemotions int64
	ThrashBytes     float64

	// Transactional-migration accounting (Nomad-style shadow copies):
	// zero-copy demotions into a clean shadow, shadows invalidated by
	// writes at demote time, shadows dropped for slow-tier capacity, and
	// promotions aborted by a write racing the copy.
	ShadowDemotions int64
	ShadowStale     int64
	ShadowReclaims  int64
	NomadAborts     int64

	// Latency observations, weighted by access counts.
	Lat      *stats.Histogram
	LatRead  *stats.Histogram
	LatWrite *stats.Histogram
}

// Throughput returns million accesses per second of virtual time.
func (m *Metrics) Throughput() float64 {
	if m.Duration == 0 {
		return 0
	}
	return m.Accesses / m.Duration.Seconds() / 1e6
}

// FMAR is the fast-tier memory access ratio (§5.1.2).
func (m *Metrics) FMAR() float64 {
	if m.Accesses == 0 {
		return 0
	}
	r := m.FastAccesses / m.Accesses
	if r > 1 { // float accumulation error when everything is fast
		r = 1
	}
	return r
}

// KernelTimeFrac is kernel CPU time as a share of total CPU time.
func (m *Metrics) KernelTimeFrac() float64 {
	tot := m.KernelNS + m.AppNS
	if tot == 0 {
		return 0
	}
	return m.KernelNS / tot
}

// ContextSwitchRate is context switches per second per process-equivalent
// (reported system-wide per second in Figure 8).
func (m *Metrics) ContextSwitchRate() float64 {
	if m.Duration == 0 {
		return 0
	}
	return m.ContextSwitches / m.Duration.Seconds()
}

// New creates an engine.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	fastPages := cfg.FastGB.Pages(cfg.PagesPerGB)
	slowPages := cfg.SlowGB.Pages(cfg.PagesPerGB)
	costScale := 262144 / float64(cfg.PagesPerGB)
	r := rng.New(cfg.Seed)
	e := &Engine{
		cfg:       cfg,
		costScale: costScale,
		clock:     simclock.New(),
		node: mem.NewNode(mem.Config{
			FastPages:     fastPages,
			SlowPages:     slowPages,
			PageSizeBytes: int64(4096 * costScale),
		}),
		table:       sysctl.NewTable(),
		rMaster:     r,
		rFault:      r.Fork(1),
		rPolicy:     r.Fork(2),
		rWorkload:   r.Fork(3),
		rPEBS:       r.Fork(4),
		byPID:       make(map[int]*procState),
		links:       lru.NewLinks(0),
		numaTiering: 1,
		sanitize:    cfg.DebugChecks || sanitizeDefault,
		slowLatMult: 1,
		fastLatMult: 1,
		M: Metrics{
			Lat:      stats.NewHistogram(),
			LatRead:  stats.NewHistogram(),
			LatWrite: stats.NewHistogram(),
		},
	}
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		e.kLRU[t] = lru.NewTwoList(e.links)
	}
	// The fault-gap hash seed (faults.go) folds in a domain constant so it
	// never collides with another derived stream.
	e.faultSeed = rng.Hash(cfg.Seed, 0x66a0, 1)
	// The shadow stream is hash-seeded (not forked): deriving it consumes
	// no rMaster draws, so engines predating transactional migration
	// reproduce bit-identically.
	e.rShadow = rng.New(rng.Hash(cfg.Seed, 0x5ad0, 2))
	policy.RegisterBackoffBinder(e)
	e.table.Int64("kernel/numa_tiering", "enable tiered NUMA management (Chrono)", &e.numaTiering, func(v int64) error {
		if v != 0 && v != 1 {
			return fmt.Errorf("value %d is not 0 or 1", v)
		}
		return nil
	}, nil)
	// The injector's streams derive from (Seed, Plan) only — never from
	// rMaster — so enabling injection shifts no engine stream, and a
	// disabled plan builds no injector at all.
	e.inj = faultinject.New(cfg.Seed, cfg.Faults)
	return e
}

// Injector returns the fault injector, nil when injection is disabled.
func (e *Engine) Injector() *faultinject.Injector { return e.inj }

// Clock returns the virtual clock.
func (e *Engine) Clock() *simclock.Clock { return e.clock }

// Node returns the memory node.
func (e *Engine) Node() *mem.Node { return e.node }

// Sysctl returns the runtime parameter table.
func (e *Engine) Sysctl() *sysctl.Table { return e.table }

// RNG returns the policy random stream (policy.Kernel).
func (e *Engine) RNG() *rng.Source { return e.rPolicy }

// WorkloadRNG returns the stream reserved for workload generators.
func (e *Engine) WorkloadRNG() *rng.Source { return e.rWorkload }

// Pages returns the dense page table.
func (e *Engine) Pages() []*vm.Page { return e.pages }

// Processes returns all processes.
func (e *Engine) Processes() []*vm.Process {
	out := make([]*vm.Process, len(e.procs))
	for i, ps := range e.procs {
		out[i] = ps.proc
	}
	return out
}

// Config returns the engine configuration (after defaulting).
func (e *Engine) Config() Config { return e.cfg }

// AddProcess registers a process with the given thread count. Its pages
// are not yet resident; call MapAll after setting the access pattern.
func (e *Engine) AddProcess(p *vm.Process, threads int) {
	if threads <= 0 {
		threads = 1
	}
	// Slot is the dense engine index of the process; hot paths (fault
	// replay, alias rebuild, page rates) use it instead of the byPID map.
	p.Slot = len(e.procs)
	ps := &procState{proc: p, threads: threads}
	e.procs = append(e.procs, ps)
	e.byPID[p.PID] = ps
}

// PageSizeMode selects base- or huge-page mapping for MapAll.
type PageSizeMode int

// Mapping granularities (Figure 11 compares -base vs -huge).
const (
	BasePages PageSizeMode = iota
	HugePages
)

// MapAll makes every VMA page of every registered process resident.
// Allocation fills the fast tier down to its high watermark first (demand
// paging with kswapd headroom), then falls back to the slow tier —
// matching the initial placement the paper's workloads see after
// sequential initialization. Residency is granted in chunks round-robin
// across processes, so concurrent initialization shares the fast tier
// proportionally.
func (e *Engine) MapAll(mode PageSizeMode) error {
	// Size the per-page columns once for every page this call creates.
	n := 0
	for _, ps := range e.procs {
		for _, v := range ps.proc.VMAs() {
			if mode == HugePages {
				n += int((v.Len + uint64(e.cfg.HugeFactor) - 1) / uint64(e.cfg.HugeFactor))
			} else {
				n += int(v.Len)
			}
		}
	}
	e.reservePages(n)
	type cursor struct {
		ps   *procState
		vma  int
		next uint64
	}
	cur := make([]cursor, 0, len(e.procs))
	for _, ps := range e.procs {
		if len(ps.proc.VMAs()) > 0 {
			cur = append(cur, cursor{ps: ps, next: ps.proc.VMAs()[0].Start})
		}
	}
	const chunk = 64 // base pages granted per process per round
	for len(cur) > 0 {
		// Keep the unfinished cursors in order, in place.
		live := cur[:0]
		for _, c := range cur {
			vmas := c.ps.proc.VMAs()
			granted := uint64(0)
			for granted < chunk && c.vma < len(vmas) {
				v := vmas[c.vma]
				if c.next >= v.End() {
					c.vma++
					if c.vma < len(vmas) {
						c.next = vmas[c.vma].Start
					}
					continue
				}
				n := uint64(1)
				if mode == HugePages {
					n = uint64(e.cfg.HugeFactor)
					if c.next+n > v.End() {
						n = v.End() - c.next
					}
				}
				if _, err := e.mapPage(c.ps, c.next, int32(n), mode == HugePages && n == uint64(e.cfg.HugeFactor)); err != nil {
					return err
				}
				c.next += n
				granted += n
			}
			if c.vma < len(vmas) {
				live = append(live, c)
			}
		}
		cur = live
	}
	for _, ps := range e.procs {
		ps.proc.RecomputeTotalWeight()
		e.recomputeProcAggregates(ps)
	}
	e.aliasStructural = true
	return nil
}

// pageChunk is the number of pages one page-arena chunk holds: 26 KB,
// which keeps a chunk within the runtime's small-object size classes.
// 1024-page chunks built no faster.
const pageChunk = 256

// newPage returns a zeroed page from the page arena: pages are carved out
// of fixed-size chunks that are never reallocated, so every *vm.Page stays
// valid for the engine's lifetime. A full chunk is kept alive by the pages
// that point into it.
func (e *Engine) newPage() *vm.Page {
	if len(e.arena) == cap(e.arena) {
		e.arena = make([]vm.Page, 0, pageChunk)
	}
	e.arena = e.arena[:len(e.arena)+1]
	return &e.arena[len(e.arena)-1]
}

// reservePages sizes the per-page columns for n more pages, so the pages
// that follow append without regrowing them.
func (e *Engine) reservePages(n int) {
	e.pages = slices.Grow(e.pages, n)
	e.pageW = slices.Grow(e.pageW, n)
	e.pageRF = slices.Grow(e.pageRF, n)
	e.everSlow = slices.Grow(e.everSlow, n)
	e.everPromoted = slices.Grow(e.everPromoted, n)
	e.links.Grow(len(e.pages) + n)
}

// PageGeneration implements policy.Kernel: it changes whenever a page is
// created or freed (mapped, split or restored).
func (e *Engine) PageGeneration() uint64 { return e.pageGen }

// mapPage creates one resident page of size n base pages. The caller has
// reserved its slot in every per-page column (reservePages).
func (e *Engine) mapPage(ps *procState, vpn uint64, n int32, huge bool) (*vm.Page, error) {
	tier := mem.FastTier
	// Fill DRAM down to the high watermark, then overflow to slow; when
	// the slow tier is also exhausted, dip into the fast-tier reserve
	// (the kernel allocates below watermarks before failing).
	if e.node.Free(mem.FastTier)-int64(n) < e.node.Watermarks(mem.FastTier).High {
		tier = mem.SlowTier
	}
	if err := e.node.Alloc(tier, int64(n)); err != nil {
		tier = tier.Other()
		if err2 := e.node.Alloc(tier, int64(n)); err2 != nil {
			return nil, fmt.Errorf("engine: map pid %d vpn %#x: %w", ps.proc.PID, vpn, err2)
		}
	}
	pg := e.newPage()
	*pg = vm.Page{
		ID:   int64(len(e.pages)),
		VPN:  vpn,
		Proc: ps.proc,
		Tier: tier,
		Size: n,
	}
	if huge {
		pg.Flags |= vm.FlagHuge
	}
	e.pages = append(e.pages, pg)
	e.pageW = append(e.pageW, 0)
	e.pageRF = append(e.pageRF, 1)
	e.everSlow = append(e.everSlow, tier == mem.SlowTier)
	e.everPromoted = append(e.everPromoted, false)
	ps.proc.InsertPage(pg)
	e.kLRU[tier].AddNew(pg.ID)
	e.pageGen++
	if tier == mem.FastTier {
		ps.residentFast += int64(n)
	} else {
		ps.residentSlow += int64(n)
	}
	if e.pol != nil {
		e.pol.OnPageMapped(pg)
	}
	return pg, nil
}

// SetPattern updates the access pattern of one base page and refreshes the
// covering page's cached weight. Call FlushPattern(p) after a batch.
func (e *Engine) SetPattern(p *vm.Process, vpn uint64, weight, readFrac float64) {
	p.SetPattern(vpn, weight, readFrac)
}

// FlushPattern applies a batch of SetPattern changes to p's cached page
// weights and per-tier masses. It walks only the dirty pattern indices the
// process recorded since the last flush — not every VMA — applying
// per-page deltas, so a drift phase that retouches a few thousand pages
// costs O(touched), independent of the working-set size.
//
//chrono:hotpath
func (e *Engine) FlushPattern(p *vm.Process) {
	dirty := p.DirtyIndexes()
	if len(dirty) == 0 {
		return
	}
	ps := e.byPID[p.PID]
	e.growScratch()
	// Dedup covering pages: a huge page spans many pattern indices but
	// must be re-weighed once. First-touch order keeps the delta
	// application deterministic.
	for _, i := range dirty {
		pg := p.PageAt(p.IndexVPN(i))
		if pg == nil || e.flushMark[pg.ID] {
			continue
		}
		e.flushMark[pg.ID] = true
		e.flushList = append(e.flushList, pg.ID)
	}
	for _, id := range e.flushList {
		e.flushMark[id] = false
		pg := e.pages[id]
		w, rf := p.PageWeight(pg)
		ow, orf := e.pageW[id], e.pageRF[id]
		e.pageW[id] = w
		e.pageRF[id] = rf
		if pg.Flags.Has(vm.FlagSwapped) {
			ps.wSwap += w - ow
		} else {
			ps.wRead[pg.Tier] += w*rf - ow*orf
			ps.wWrite[pg.Tier] += w*(1-rf) - ow*(1-orf)
		}
		ps.wTot += w - ow
	}
	e.flushList = e.flushList[:0]
	p.ClearDirty()
	e.aliasWeightDirty = true
}

// growScratch sizes the per-page scratch marks to the page table.
func (e *Engine) growScratch() {
	if len(e.flushMark) < len(e.pages) {
		//chrono:allow hotalloc grows once per page-table extension, then reused every flush
		e.flushMark = append(e.flushMark, make([]bool, len(e.pages)-len(e.flushMark))...)
	}
}

// recomputeProcAggregates rebuilds ps's cached page weights and per-tier
// masses from scratch (used at map time; steady-state updates go through
// FlushPattern's incremental path). Swapped pages contribute to wSwap, not
// to any tier mass.
func (e *Engine) recomputeProcAggregates(ps *procState) {
	for t := range ps.wRead {
		ps.wRead[t] = 0
		ps.wWrite[t] = 0
	}
	ps.wTot = 0
	ps.wSwap = 0
	// A page's covered VPNs are contiguous and inside one VMA, so the walk
	// meets each page first at pg.VPN and skips the rest of its span: no
	// seen-set is needed to count a huge page once.
	for _, v := range ps.proc.VMAs() {
		for vpn := v.Start; vpn < v.End(); {
			pg := ps.proc.PageAt(vpn)
			if pg == nil {
				vpn++
				continue
			}
			vpn = pg.VPN + uint64(pg.Size)
			w, rf := ps.proc.PageWeight(pg)
			e.pageW[pg.ID] = w
			e.pageRF[pg.ID] = rf
			if pg.Flags.Has(vm.FlagSwapped) {
				ps.wSwap += w
			} else {
				ps.wRead[pg.Tier] += w * rf
				ps.wWrite[pg.Tier] += w * (1 - rf)
			}
			ps.wTot += w
		}
	}
	// A full rebuild subsumes any pending incremental work, and releases
	// the dirty list the initial pattern fill grew to every page.
	ps.proc.DropDirty()
}

// PageWeightCached returns the cached access weight of a page.
func (e *Engine) PageWeightCached(id int64) float64 { return e.pageW[id] }

// ProcOf returns the engine state for a process.
func (e *Engine) procOf(p *vm.Process) *procState { return e.byPID[p.PID] }

// PageRate returns the current accesses/second of a page. This is the
// ground-truth rate — available to the harness and the fault generator,
// not part of the policy.Kernel surface.
func (e *Engine) PageRate(pg *vm.Page) float64 {
	ps := e.procs[pg.Proc.Slot]
	if ps.wTot == 0 {
		return 0
	}
	return ps.rate * e.pageW[pg.ID] / ps.wTot
}

// ResidentFast returns the resident fast-tier base pages of p.
func (e *Engine) ResidentFast(p *vm.Process) int64 { return e.byPID[p.PID].residentFast }

// ResidentSlow returns the resident slow-tier base pages of p.
func (e *Engine) ResidentSlow(p *vm.Process) int64 { return e.byPID[p.PID].residentSlow }

// EnablePatternRestore registers a process whose workload rewrites its
// access pattern during the run: every Snapshot carries the process's
// pattern arrays verbatim and Restore writes them back (see
// restorePatterns). Dynamic workloads call this from Build, in the same
// order on every Build; static workloads do not, which keeps their
// snapshots small.
func (e *Engine) EnablePatternRestore(p *vm.Process) {
	e.patternRestore = append(e.patternRestore, p)
}

// AttachPolicy installs the tiering policy. Must be called after MapAll
// and before Run.
func (e *Engine) AttachPolicy(p policy.Policy) {
	e.pol = p
	e.admit, _ = p.(policy.Admitter)
	p.Attach(e)
}

// Policy returns the attached policy (nil before AttachPolicy).
func (e *Engine) Policy() policy.Policy { return e.pol }

// Run executes the simulation for the given virtual duration.
func (e *Engine) Run(d simclock.Duration) *Metrics {
	e.horizon = e.clock.Now() + d
	// Prime rates and bandwidth state before the first epoch so early
	// faults see sane rates.
	e.updateRates()
	e.updateBandwidth(0)
	e.updateRates()
	e.migTokens = float64(migrationBWBytes) // one second of initial budget
	e.startTickers()
	e.runLoop()
	return e.finishRun()
}

// startTickers arms the engine's periodic work under stable checkpoint
// keys, in a fixed order so event sequence numbers are reproducible. The
// ticker objects are created once and re-armed on later runs: a keyed
// ticker keeps its registry slot through Cancel/Restart, so repeated Run
// calls (sweeps, benchmarks) allocate nothing here.
func (e *Engine) startTickers() {
	if e.engTickers == nil {
		e.engTickers = []*simclock.Ticker{
			e.clock.EveryKey("engine/epoch", EpochNS, func(now simclock.Time) { e.epochTick(now) }),
			// Kernel LRU aging once per minute: the paper (§2.3) observes that
			// accessed-bit reset intervals in practice "last from minutes to
			// hours", which is why hardware-bit recency is a coarse hotness
			// signal. Faster aging would hand every policy an unrealistically
			// sharp reclaim oracle.
			e.clock.EveryKey("engine/age", simclock.Minute, func(now simclock.Time) { e.ageLRU() }),
			// kswapd watermark check every 500 ms.
			e.clock.EveryKey("engine/kswapd", 500*simclock.Millisecond, func(now simclock.Time) { e.kswapd() }),
			// cgroup memory.limit enforcement every second (§3.3.1).
			e.clock.EveryKey("engine/cgroup", simclock.Second, func(now simclock.Time) { e.cgroupReclaim(now) }),
		}
	} else {
		for _, t := range e.engTickers {
			t.Restart()
		}
	}
	e.runTickers = e.engTickers
}

// finishRun is the common tail of Run and ResumeRun: cancel the periodic
// work, stamp the duration, and run the final invariant check.
func (e *Engine) finishRun() *Metrics {
	for _, t := range e.runTickers {
		t.Cancel()
	}
	e.runTickers = nil
	e.M.Duration = e.clock.Now()
	e.sanitizeTick()
	return &e.M
}

// ResumeRun continues a Restored simulation to its recorded horizon. The
// priming and ticker arming Run performs are already part of the restored
// state, so it only drains the clock and closes out the run.
func (e *Engine) ResumeRun() *Metrics {
	e.runLoop()
	return e.finishRun()
}
