package engine

import (
	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/units"
)

// This file implements the per-epoch throughput/latency accounting.

// latency jitter spread: queueing and cache effects scatter observed
// access latency around the device latency. The weights approximate the
// shape of the measured Optane/DRAM access-time distributions.
var jitter = [...]struct {
	mult float64
	frac float64
}{
	{0.85, 0.30},
	{1.00, 0.40},
	{1.40, 0.20},
	{2.50, 0.08},
	{5.00, 0.02},
}

// AccessBytes is the demand one access generates: a cache-line fill
// (64 B) — pmbench-style pointer-chasing touches one line per op.
const AccessBytes = 64

// SlowMediaAmp is Optane PM's internal access granularity amplification:
// the media operates on 256 B XPLines, so a random 64 B demand costs 4× at
// the media, and a store additionally performs a read-modify-write
// (Xiang et al., EuroSys '22, "a close look at its on-DIMM buffering").
const SlowMediaAmp = 4

// Demand bandwidths of the testbed's tiers. Optane PM is severely
// read/write asymmetric: the two-module slow tier sustains 12 GB/s of
// reads and 4 GB/s of writes; the DRAM tier 100 GB/s. Demand beyond these
// saturates the media and queueing inflates access latency (§5.1.1's
// write-intensive results).
const (
	slowReadBW  units.BytesPerSec = 12e9
	slowWriteBW units.BytesPerSec = 4e9
	fastBW      units.BytesPerSec = 100e9
)

// updateRates recomputes each process's closed-loop access rate from its
// current placement, kernel-time pressure, and fault overhead.
func (e *Engine) updateRates() {
	// Kernel work competes with app threads for the same CPUs: scale
	// throughput down by the global kernel-time fraction.
	penalty := 1 - e.kernelFrac
	if penalty < 0.5 {
		penalty = 0.5
	}
	lat := e.node.Latency()
	for _, ps := range e.procs {
		if ps.wTot <= 0 {
			ps.rate = 0
			continue
		}
		var wl float64
		for t := mem.TierID(0); t < mem.NumTiers; t++ {
			wl += ps.wRead[t]*float64(lat.ReadNS[t])*e.latMult(t, false) +
				ps.wWrite[t]*float64(lat.WriteNS[t])*e.latMult(t, true)
		}
		wl += ps.wSwap * SwapLatencyNS
		avgLat := wl / ps.wTot
		perAccess := float64(cpuWorkNS) + float64(ps.proc.DelayNS) + avgLat + ps.faultOverheadNS
		ps.rate = float64(ps.threads) * 1e9 / perAccess * penalty
	}
}

// latMult returns the current queueing latency multiplier of a tier/op.
func (e *Engine) latMult(t mem.TierID, write bool) float64 {
	if t == mem.SlowTier {
		return e.slowLatMult
	}
	return e.fastLatMult
}

// queueMult converts a bandwidth utilization into a latency inflation
// factor: near-linear at low load, exploding toward saturation — the
// open-loop M/M/1 shape that makes Optane bandwidth the first-order
// performance effect in the paper's write-heavy experiments.
func queueMult(util float64) float64 {
	if util < 0 {
		util = 0
	}
	capped := util
	if capped > 0.97 {
		capped = 0.97
	}
	return 1 + 0.5*util + 0.5*capped*capped/(1-capped)
}

// updateBandwidth recomputes tier utilizations from the epoch's measured
// traffic and refreshes the latency multipliers (EMA-smoothed to damp the
// rate↔latency feedback loop).
func (e *Engine) updateBandwidth(migBytesPerSec float64) {
	var slowReadBytesPerSec, slowWriteBytesPerSec, fastBytesPerSec float64
	for _, ps := range e.procs {
		if ps.wTot <= 0 || ps.rate <= 0 {
			continue
		}
		perW := ps.rate / ps.wTot * AccessBytes
		slowReadBytesPerSec += perW * ps.wRead[mem.SlowTier]
		slowWriteBytesPerSec += perW * ps.wWrite[mem.SlowTier]
		fastBytesPerSec += perW * (ps.wRead[mem.FastTier] + ps.wWrite[mem.FastTier])
	}
	// Optane media amplification: random 64 B reads cost a 256 B XPLine
	// fetch; stores read-modify-write a full line. Migration copies also
	// land on the slow media (one side of every promotion/demotion).
	readStreamBytesPerSec := (slowReadBytesPerSec + slowWriteBytesPerSec) * SlowMediaAmp
	writeStreamBytesPerSec := slowWriteBytesPerSec*SlowMediaAmp + migBytesPerSec
	ru := readStreamBytesPerSec / float64(slowReadBW)
	wu := writeStreamBytesPerSec / float64(slowWriteBW)
	slowUtil := ru
	if wu > slowUtil {
		slowUtil = wu
	}
	fastUtil := (fastBytesPerSec + migBytesPerSec) / float64(fastBW)
	e.slowUtilEMA = 0.5*e.slowUtilEMA + 0.5*slowUtil
	e.fastUtilEMA = 0.5*e.fastUtilEMA + 0.5*fastUtil
	e.slowLatMult = queueMult(e.slowUtilEMA)
	e.fastLatMult = queueMult(e.fastUtilEMA)
}

// SlowUtilization returns the smoothed slow-tier bandwidth utilization.
func (e *Engine) SlowUtilization() float64 { return e.slowUtilEMA }

// epochTick closes one accounting epoch: it attributes the epoch's
// accesses to latency histograms and counters, refreshes fault-overhead
// estimates and contention, and recomputes rates for the next epoch.
func (e *Engine) epochTick(now simclock.Time) {
	dt := EpochNS.Seconds()

	// Per-tier access masses accumulate across processes first: the jitter
	// histogram expansion depends only on the tier and op, so one expansion
	// per tier replaces one per (process, tier) — at fig6a scale that turns
	// ~2000 histogram inserts per epoch into ~40.
	var tierReads, tierWrites [mem.NumTiers]float64
	for _, ps := range e.procs {
		if ps.wTot <= 0 || ps.rate <= 0 {
			continue
		}
		acc := ps.rate * dt
		e.M.Accesses += acc

		fastShare := (ps.wRead[mem.FastTier] + ps.wWrite[mem.FastTier]) / ps.wTot
		e.M.FastAccesses += acc * fastShare

		for t := mem.TierID(0); t < mem.NumTiers; t++ {
			reads := acc * ps.wRead[t] / ps.wTot
			writes := acc * ps.wWrite[t] / ps.wTot
			e.M.Reads += reads
			e.M.Writes += writes
			tierReads[t] += reads
			tierWrites[t] += writes
		}

		// Fault overhead per access (EMA over epochs).
		var perAccess float64
		if acc > 0 {
			perAccess = ps.epochFaults * float64(faultKernelNS) * e.costScale / acc
		}
		ps.faultOverheadNS = 0.7*ps.faultOverheadNS + 0.3*perAccess
		ps.epochFaults = 0
	}
	lat := e.node.Latency()
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		reads, writes := tierReads[t], tierWrites[t]
		for _, j := range jitter {
			if reads > 0 {
				l := float64(lat.ReadNS[t]) * e.latMult(t, false) * j.mult
				e.M.Lat.Add(l, reads*j.frac)
				e.M.LatRead.Add(l, reads*j.frac)
			}
			if writes > 0 {
				l := float64(lat.WriteNS[t]) * e.latMult(t, true) * j.mult
				e.M.Lat.Add(l, writes*j.frac)
				e.M.LatWrite.Add(l, writes*j.frac)
			}
		}
	}

	// Baseline scheduler context switches and the kernel-time fraction
	// for the next epoch's throughput penalty.
	var appNS float64
	for _, ps := range e.procs {
		appNS += float64(ps.threads) * dt * 1e9
		e.M.ContextSwitches += contextSwitchIdleHz.Count(units.Sec(dt))
	}
	e.M.AppNS += appNS
	if appNS+e.kernelNSEpoch > 0 {
		frac := e.kernelNSEpoch / (appNS + e.kernelNSEpoch)
		e.kernelFrac = 0.7*e.kernelFrac + 0.3*frac
	}
	e.kernelNSEpoch = 0

	// Migration traffic contends with demand accesses at the media.
	migBW := e.epochMigBytes / dt // bytes/s this epoch
	e.epochMigBytes = 0
	e.updateBandwidth(migBW)

	// Refill the migration token bucket. The burst bound is 5 seconds of
	// budget: policies that migrate in periodic batches (Multi-Clock's
	// CLOCK pass, Memtis's kmigrated) spend their whole batch at one
	// instant, and the kernel path could absorb such bursts; the bucket
	// still enforces the sustained average.
	e.migTokens += float64(migrationBWBytes) * dt
	if maxTokens := 5 * float64(migrationBWBytes); e.migTokens > maxTokens {
		e.migTokens = maxTokens
	}

	e.updateRates()
	if e.EpochHook != nil {
		e.EpochHook(now)
	}
	e.sanitizeTick()
}

// DRAMPagePercent returns the Figure 9 metric for one process:
// fast-resident / (fast+slow resident) × 100.
func (e *Engine) DRAMPagePercent(pid int) float64 {
	ps := e.byPID[pid]
	if ps == nil {
		return 0
	}
	tot := ps.residentFast + ps.residentSlow
	if tot == 0 {
		return 0
	}
	return float64(ps.residentFast) / float64(tot) * 100
}

// ProcRate returns the current access rate of a process (accesses/sec).
func (e *Engine) ProcRate(pid int) float64 {
	ps := e.byPID[pid]
	if ps == nil {
		return 0
	}
	return ps.rate
}
