// Package policy defines the contract between the simulated kernel
// (internal/engine) and a tiered-memory management policy — Chrono or one
// of the evaluated baselines (Linux NUMA balancing, AutoTiering,
// Multi-Clock, TPP, Memtis).
//
// A policy observes memory behaviour only through the mechanisms a real
// kernel policy has: page faults on pages it poisoned (PROT_NONE), PTE
// accessed-bit test-and-clear, PEBS-style samples, and allocation
// watermark state. It acts by protecting pages, promoting/demoting them,
// and charging the kernel CPU time its bookkeeping would cost. The true
// per-page access rates that drive the simulation are deliberately not
// reachable through the Kernel interface.
//
// Every policy is checkpointable: its mutable state round-trips through
// CheckpointState/RestoreCheckpoint and its clock events are keyed, so
// any run can be snapshotted, resumed and live-reconfigured.
package policy

import (
	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/sysctl"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// MigrateResult is the outcome of a TryPromote/TryDemote attempt. Each
// failure names the admission step that refused the move, because the
// causes demand different reactions.
type MigrateResult int

const (
	// MigrateOK: the page is (now) resident in the requested tier.
	MigrateOK MigrateResult = iota
	// MigrateNoCapacity: the destination tier is full (after direct
	// reclaim, for a promotion). Retrying immediately is futile — the
	// caller should stop its batch and wait for reclaim.
	MigrateNoCapacity
	// MigrateTransient: the move aborted on a transient condition — a
	// busy/pinned page or an allocation failure near the watermarks
	// (NOMAD-style abort). The page is untouched; a bounded retry, now
	// or after a short sim-time backoff, may well succeed.
	MigrateTransient
	// MigrateThrottled: the migration bandwidth token bucket is dry. No
	// move of this size can succeed before the next refill.
	MigrateThrottled
	// MigrateDenied: the policy's admission hook (Admitter, e.g. the
	// thrash guard) refused the promotion.
	MigrateDenied
)

// String returns the result name for logs and test failures.
func (r MigrateResult) String() string {
	switch r {
	case MigrateOK:
		return "ok"
	case MigrateNoCapacity:
		return "no-capacity"
	case MigrateTransient:
		return "transient"
	case MigrateThrottled:
		return "throttled"
	case MigrateDenied:
		return "denied"
	}
	return "unknown"
}

// Kernel is the simulated kernel services available to a policy. It is
// implemented by internal/engine.
type Kernel interface {
	// Clock returns the virtual clock for scheduling scans and timers.
	Clock() *simclock.Clock
	// Node returns the physical memory node (capacities, watermarks,
	// migration counters).
	Node() *mem.Node
	// Processes returns all simulated address spaces.
	Processes() []*vm.Process
	// Pages returns the dense page table: Pages()[id] is the page with
	// ID id, nil if freed. Policies may size side arrays by len(Pages()).
	Pages() []*vm.Page
	// PageGeneration changes whenever a page is created or freed. While
	// it holds, Pages() holds the same pages in the same slots, each of
	// the same process and size, so a grouping built from them is still
	// valid. It is not part of any checkpoint.
	PageGeneration() uint64

	// Protect poisons the page PROT_NONE and stamps pg.ProtTS, causing a
	// fault to be delivered at the page's next access. Protecting an
	// already protected page restamps it.
	Protect(pg *vm.Page)
	// Unprotect clears the poisoning without a fault.
	Unprotect(pg *vm.Page)

	// AccessedTestAndClear simulates the PTE accessed-bit read-and-clear:
	// it reports whether the page was accessed since the bit was last
	// cleared (or since mapping), then clears it.
	AccessedTestAndClear(pg *vm.Page) bool

	// TryPromote moves a page to the fast tier. When the fast tier cannot
	// hold it, the engine performs direct reclaim (demoting cold pages
	// from the kernel LRU) first. The admission chain runs in a fixed
	// order: the policy's Admitter hook (Denied), direct reclaim
	// (NoCapacity), the fault injector (Transient), then the migration
	// token bucket (Throttled). Any result but MigrateOK leaves the page
	// where it was.
	TryPromote(pg *vm.Page) MigrateResult
	// TryDemote moves a page to the slow tier; same contract as
	// TryPromote, without the Admitter hook or direct reclaim.
	TryDemote(pg *vm.Page) MigrateResult
	// MigrationsDry reports that every TryDemote is a no-op until the
	// next epoch: the token bucket holds less than one base page, and
	// neither a fault injector nor a shadow copy acts before the bucket
	// check. While it holds, a policy may skip demotion attempts without
	// changing the run.
	MigrationsDry() bool

	// SplitHuge splits a huge page into base pages and returns them
	// (Memtis's page splitting). Returns nil if pg is not huge.
	SplitHuge(pg *vm.Page) []*vm.Page
	// HugeUtilization estimates the fraction of a huge page's base
	// regions that receive accesses — the signal PEBS sub-page address
	// samples give Memtis to decide splitting. Returns 1 for base pages.
	HugeUtilization(pg *vm.Page) float64

	// ChargeKernel accounts ns of kernel CPU to the policy (scan work,
	// list maintenance, sampling micro-operations).
	ChargeKernel(ns units.NS)
	// CostScale is the real-pages-per-simulated-page factor: per-page
	// bookkeeping costs passed to ChargeKernel should be multiplied by it
	// so kernel-time fractions come out in real terms.
	CostScale() float64
	// HugeFactor is the number of simulated base pages folded into one
	// huge page under huge-page mapping (the simulator's stand-in for
	// the real 512).
	HugeFactor() int
	// CountContextSwitches adds n context switches to the run metrics.
	CountContextSwitches(n int64)

	// RNG returns a deterministic random stream reserved for the policy.
	RNG() *rng.Source
	// Sysctl returns the runtime parameter table.
	Sysctl() *sysctl.Table

	// SamplePEBS draws one sampling period's worth of hardware event
	// samples (the PEBS channel Memtis/HeMem consume) into s. It returns
	// the number of samples retained.
	SamplePEBS(s *pebs.Sampler, period units.Sec) int

	// InactiveTail returns up to n pages from the cold end of the
	// kernel's LRU inactive list for the given tier — the candidate
	// source Linux reclaim (and Chrono's demotion, §3.3.1) uses.
	InactiveTail(tier mem.TierID, n int) []*vm.Page

	// FastFree returns free pages in the fast tier (watermark checks).
	FastFree() int64
}

// TransactionalKernel is the optional Kernel extension for Nomad-style
// transactional migration (Xiang et al., OSDI '23): promotion keeps a
// shadow copy of the page in the slow tier, so demoting the page later is
// free as long as no write dirtied it in the meantime. Kernels that
// support it (internal/engine) also intercept TryDemote on shadowed pages
// and turn clean demotions into zero-copy remaps. Policies type-assert
// for it and fall back to plain TryPromote when absent.
type TransactionalKernel interface {
	Kernel
	// PromoteShadowed promotes pg transactionally: on success the page is
	// fast-tier resident and its slow-tier frames are retained as a shadow
	// copy. A write arriving while the copy is in flight aborts the
	// transaction (MigrateTransient, counted in the run metrics); swapped
	// pages degrade to the regular swap-in promotion (no slow copy exists
	// to retain).
	PromoteShadowed(pg *vm.Page) MigrateResult
	// Shadowed reports whether pg currently holds a slow-tier shadow copy.
	Shadowed(pg *vm.Page) bool
}

// Admitter is the optional Policy extension that gates promotions. The
// engine type-asserts it once at AttachPolicy and consults it exactly
// once per promotion attempt of a page not already fast-resident, before
// direct reclaim; a false return fails the attempt with MigrateDenied.
// The thrash guard (WithThrashGuard) is the admitter this repo carries.
type Admitter interface {
	AdmitPromotion(pg *vm.Page) bool
}

// Policy is a tiered-memory management policy under evaluation.
type Policy interface {
	// Name identifies the policy in reports ("Chrono", "TPP", ...).
	Name() string
	// Attach wires the policy to the kernel; the policy schedules its
	// periodic work (scans, cooling, tuning) on k.Clock() here, under
	// checkpoint keys unique to the policy. Attach is called once, after
	// processes are mapped, and again on the fresh engine a checkpoint
	// is restored onto.
	Attach(k Kernel)
	// OnFault is invoked when an access hits a page this kernel poisoned
	// (hint faults) — the NUMA-balancing style notification channel.
	OnFault(pg *vm.Page, now simclock.Time)
	// OnPageMapped is invoked when a page becomes resident after Attach
	// (e.g. created by a split); policies grow side structures here.
	OnPageMapped(pg *vm.Page)
	// OnPageFreed is invoked when a page leaves residency.
	OnPageFreed(pg *vm.Page)
	// OnMigrated is invoked after any tier move — including moves the
	// kernel performed on its own (kswapd demotion, direct reclaim) —
	// so policies with tier-indexed structures stay consistent.
	OnMigrated(pg *vm.Page, from, to mem.TierID)

	// CheckpointState returns a JSON-marshalable value holding every
	// mutable field that influences future decisions (candidate sets,
	// queues, counters, EMA accumulators, scan-walker positions), so an
	// engine checkpoint can capture any run.
	CheckpointState() (any, error)
	// RestoreCheckpoint receives the marshaled CheckpointState bytes back
	// after Attach has rebuilt the policy's structure on a fresh engine
	// with the same configuration, and overlays them without scheduling
	// or cancelling any clock events — pending events are the clock
	// snapshot's job. Every periodic event a policy schedules must
	// therefore be keyed (simclock EveryKey, or AtKey with a BindKey
	// binder).
	RestoreCheckpoint(data []byte) error
}

// Base provides no-op implementations of the optional hooks so simple
// policies only implement what they use.
type Base struct{}

// OnPageMapped implements Policy.
func (Base) OnPageMapped(*vm.Page) {}

// OnPageFreed implements Policy.
func (Base) OnPageFreed(*vm.Page) {}

// OnMigrated implements Policy.
func (Base) OnMigrated(*vm.Page, mem.TierID, mem.TierID) {}
