package engine

// Deferred fault materialization: Protect does not draw a gap or schedule a
// clock event; it appends a deferred Protect to e.pendingProts, and the gap
// draw ("materialization") happens when the engine next drains faults,
// which pushes one timed entry per live Protect into e.faultQ.
//
// Determinism argument (DESIGN.md "Deferred fault materialization"):
//
//   - The gap draw is the stateless rng.HashFloat64 of (faultSeed, page ID,
//     fault seq): no stream position, so the value does not depend on when
//     or in which order materialization evaluates it.
//   - The other inputs are ProtTS and the injected delay, frozen at Protect
//     time, and the page rate, read at the drain; drains happen at fixed
//     points of the event order, so every run reads the same rate.
//   - Replay pops the earliest entry by (At, ID, Seq), a total order
//     independent of insertion order, and a stale entry (its Seq no longer
//     the page's FaultSeq) is dropped on pop.

import (
	"chrono/internal/mem"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// pendingProt is one deferred Protect awaiting materialization. The injected
// delivery delay is drawn at Protect time (the injector stream is serial),
// so materialization needs no stateful randomness.
type pendingProt struct {
	id    int64
	seq   uint64
	delay simclock.Duration
}

// materializePending turns the deferred Protects into timed fault-queue
// entries.
func (e *Engine) materializePending() {
	now := e.clock.Now()
	for _, pp := range e.pendingProts {
		if pp.id < 0 || pp.id >= int64(len(e.pages)) {
			continue
		}
		pg := e.pages[pp.id]
		// Stale deferred Protects (page re-protected, unprotected, or freed
		// since) drop here; the seq match keeps exactly the latest Protect.
		if pg == nil || pg.FaultSeq != pp.seq || !pg.Flags.Has(vm.FlagProtNone) {
			continue
		}
		rate := e.PageRate(pg)
		if rate < minFaultRate {
			continue
		}
		u := rng.HashFloat64(e.faultSeed, uint64(pp.id), pp.seq)
		gapS := units.Sec(u / rate)
		at := pg.ProtTS + gapS.Duration() + pp.delay
		if at < now {
			at = now // defensive: replay never moves the clock backwards
		}
		if at > e.horizon {
			continue
		}
		e.faultQ.Push(simclock.ShardEntry{At: at, ID: pp.id, Seq: pp.seq})
	}
	e.pendingProts = e.pendingProts[:0]
}

// drainFaults materializes deferred Protects and replays pending hint
// faults in canonical order up to limit, stopping early when a master clock
// event (epoch tick, policy timer — including timers scheduled by OnFault
// mid-replay) comes due first. Per-fault metric charges accumulate into a
// batch flushed on return, before any master event can observe them.
// Reports whether at least one fault was replayed.
//
// Termination: each iteration either pops a queue entry or breaks;
// materialization always empties the pending list, and new pendings appear
// only from OnFault — which consumed an entry to run.
//
//chrono:hotpath
func (e *Engine) drainFaults(limit simclock.Time) bool {
	replayed := false
	var perTier [mem.NumTiers]int64
	for {
		// Re-materialize before every pop: an OnFault-issued Protect can
		// produce an entry earlier than the current queue minimum, and the
		// canonical order must see it.
		e.materializePending()
		due := limit
		if next := e.clock.NextAt(); next < due {
			due = next
		}
		best, ok := e.faultQ.PopLE(due)
		if !ok {
			break
		}
		if best.ID < 0 || best.ID >= int64(len(e.pages)) {
			continue
		}
		pg := e.pages[best.ID]
		if pg == nil || pg.FaultSeq != best.Seq || !pg.Flags.Has(vm.FlagProtNone) {
			continue // stale timer: page re-protected, unprotected, or freed
		}
		e.clock.AdvanceTo(best.At)
		pg.Flags &^= vm.FlagProtNone
		pg.LastFault = best.At
		perTier[pg.Tier]++
		e.procs[pg.Proc.Slot].epochFaults++
		replayed = true
		// Hint faults do NOT rotate the kernel LRU: the real fault handler
		// never touches the lists, and reclaim learns about references only
		// through its own (slow) accessed-bit scans. Giving the LRU
		// fault-recency information would make reclaim unrealistically sharp.
		if e.pol != nil {
			e.pol.OnFault(pg, best.At)
		}
	}
	e.flushFaultBatch(&perTier)
	return replayed
}

// flushFaultBatch applies the accumulated metric charges of one replay
// batch: fault counts, context switches, kernel time, and the per-tier
// latency observations (each replayed fault stands for CostScale real page
// faults that saw the fault-handling latency on top of their tier latency).
func (e *Engine) flushFaultBatch(perTier *[mem.NumTiers]int64) {
	var n int64
	for _, c := range perTier {
		n += c
	}
	if n == 0 {
		return
	}
	fn := float64(n)
	e.M.Faults += fn
	e.M.ContextSwitches += fn
	e.ChargeKernel(faultKernelNS.Mul(e.costScale).Mul(fn))
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		c := perTier[t]
		if c == 0 {
			continue
		}
		lat := float64(faultLatencyNS + e.node.Latency().Access(t, false))
		w := float64(c) * e.costScale
		e.M.Lat.Add(lat, w)
		e.M.LatRead.Add(lat, w)
	}
}

// runLoop is the engine's event loop: replay due faults, then fire the next
// master event, until the horizon. Faults at time t fire before a master
// event at t, and the afterStep hook (checkpoint safe points, watchdogs)
// runs only at master-event boundaries — exactly the instants Snapshot is
// specified for.
//
//chrono:hotpath
func (e *Engine) runLoop() {
	for !e.clock.Stopped() {
		next := e.clock.NextAt()
		limit := next
		if e.horizon < limit {
			limit = e.horizon
		}
		if e.drainFaults(limit) {
			continue
		}
		if next > e.horizon {
			break
		}
		if !e.clock.StepAfter() {
			break
		}
	}
	if !e.clock.Stopped() && e.clock.Now() < e.horizon {
		e.clock.AdvanceTo(e.horizon)
	}
}
