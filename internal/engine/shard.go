package engine

// Sharded fault machinery: the page-ID space is partitioned across
// Config.Shards shards (owner = ID mod Shards), each owning a pending-fault
// timer queue and a deferred-Protect list. Protect no longer draws a gap or
// schedules a clock event; it records a deferred Protect on the owner shard,
// and the gap draw ("materialization") happens when the engine next drains
// faults — in parallel across shards when ShardWorkers allows.
//
// Determinism argument (DESIGN.md "Sharded execution"):
//
//   - The gap draw is the stateless rng.Hash of (faultSeed, page ID, fault
//     seq) — no stream position, so the value is independent of which shard
//     evaluates it and of materialization order.
//   - Every input of materialization (page rate, ProtTS, injected delay) is
//     frozen at Protect time or derived from state no shard mutates during
//     a materialization pass; workers only push into their own queue.
//   - Replay is a serial k-way merge: the globally earliest entry by
//     (At, ID, Seq) fires first, a total order independent of the shard
//     count and of per-queue insertion order.
//
// Shards therefore only change *where* pending timers live and *how many
// cores* compute the draws; the replayed fault sequence is byte-identical
// for every shard count and worker count.

import (
	"sync"

	"chrono/internal/mem"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// parallelMaterializeMin is the pending-Protect batch size below which
// materialization stays inline: a handful of draws is cheaper than the
// goroutine handoff.
const parallelMaterializeMin = 128

// pendingProt is one deferred Protect awaiting materialization. The injected
// delivery delay is drawn at Protect time (the injector stream is serial),
// so materialization needs no stateful randomness.
type pendingProt struct {
	id    int64
	seq   uint64
	delay simclock.Duration
}

// engineShard owns the fault state of the page IDs congruent to its index
// modulo the shard count.
type engineShard struct {
	queue   simclock.ShardQueue //chrono:owned
	pending []pendingProt       //chrono:owned
}

// ownerShard returns the shard owning a page ID.
func (e *Engine) ownerShard(id int64) *engineShard {
	return e.shards[id%int64(len(e.shards))]
}

// havePending reports whether any shard holds unmaterialized Protects.
//
//chrono:merge fan-in scan: reads every shard's pending count, serial
func (e *Engine) havePending() bool {
	for _, sh := range e.shards {
		if len(sh.pending) > 0 {
			return true
		}
	}
	return false
}

// materializeShard turns one shard's deferred Protects into timed queue
// entries. Safe to run concurrently with other shards' materialization: it
// reads only page/process state frozen during the pass and writes only its
// own queue.
func (e *Engine) materializeShard(sh *engineShard, now simclock.Time) {
	for _, pp := range sh.pending {
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
		sh.queue.Push(simclock.ShardEntry{At: at, ID: pp.id, Seq: pp.seq})
	}
	sh.pending = sh.pending[:0]
}

// materializePending drains every shard's deferred Protects into timed
// entries, fanning out across shard workers when the batch is large enough
// to pay for the handoff. The execution strategy (inline vs. workers) never
// affects results; see the determinism argument above.
//
//chrono:merge fan-out fence: each shard is handed to exactly one worker
func (e *Engine) materializePending() {
	total := 0
	for _, sh := range e.shards {
		total += len(sh.pending)
	}
	if total == 0 {
		return
	}
	now := e.clock.Now()
	if e.shardWorkers > 1 && total >= parallelMaterializeMin {
		w := e.shardWorkers
		if w > len(e.shards) {
			w = len(e.shards)
		}
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			//chrono:allow hotalloc worker closure amortized over >=parallelMaterializeMin draws
			go func(k int) {
				defer wg.Done()
				// Striped ownership: each shard is touched by exactly one
				// worker, so queues are never shared between goroutines.
				for i := k; i < len(e.shards); i += w {
					if sh := e.shards[i]; len(sh.pending) > 0 {
						e.materializeShard(sh, now)
					}
				}
			}(k)
		}
		wg.Wait()
		return
	}
	for _, sh := range e.shards {
		if len(sh.pending) > 0 {
			e.materializeShard(sh, now)
		}
	}
}

// peekEarliest returns the globally earliest pending fault entry across all
// shard queues under the canonical (At, ID, Seq) order, or nil when every
// queue is empty.
//
//chrono:merge k-way merge head: inspects every shard queue, serial
func (e *Engine) peekEarliest() (simclock.ShardEntry, *engineShard) {
	var best simclock.ShardEntry
	var bestSh *engineShard
	for _, sh := range e.shards {
		en, ok := sh.queue.Peek()
		if !ok {
			continue
		}
		if bestSh == nil || en.Before(best) {
			best, bestSh = en, sh
		}
	}
	return best, bestSh
}

// drainFaults materializes deferred Protects and replays pending hint
// faults in canonical order up to limit, stopping early when a master clock
// event (epoch tick, policy timer — including timers scheduled by OnFault
// mid-replay) comes due first. Per-fault metric charges accumulate into a
// batch flushed on return, before any master event can observe them.
// Reports whether at least one fault was replayed.
//
// Termination: each iteration either pops a queue entry or breaks;
// materialization always empties the pending lists, and new pendings appear
// only from OnFault — which consumed an entry to run.
//
//chrono:merge serial replay loop: pops from whichever shard is earliest
//chrono:hotpath
func (e *Engine) drainFaults(limit simclock.Time) bool {
	replayed := false
	var perTier [mem.NumTiers]int64
	for {
		// Re-materialize before every pop: an OnFault-issued Protect can
		// produce an entry earlier than the current queue minimum, and the
		// canonical order must see it.
		e.materializePending()
		best, sh := e.peekEarliest()
		if sh == nil || best.At > limit || e.clock.NextAt() < best.At {
			break
		}
		sh.queue.PopLE(best.At)
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
