// Package tpp implements the TPP baseline (Maruf et al., ASPLOS '23):
// transparent page placement for CXL-enabled tiered memory, combining the
// NUMA-balancing hint-fault channel with an LRU recency check, as
// characterized in the paper's §2.3 ("Page-fault + LRU lists", effective
// scale 0–2 access/min).
//
// TPP's promotion rule gives slow-tier pages a second chance: a faulting
// page is promoted only if it shows re-reference within the recency
// window (its previous hint fault was recent — the kernel checks the page
// sits on the active LRU). TPP's other pillar, keeping fast-tier headroom
// for new allocations via early demotion, is realized through the
// watermark reclaim the engine provides, with TPP widening the demotion
// watermark gap.
package tpp

import (
	"encoding/json"

	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/policy/scan"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// Policy is the TPP baseline. The previous fault timestamp is kept in
// pg.Meta (see policy.ReReferenced).
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base               //chrono:rebuilt stateless method set
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach
	scan        *scan.Set     //chrono:state Scan
}

// New returns a TPP policy.
func New() *Policy { return &Policy{} }

// Name implements policy.Policy.
func (p *Policy) Name() string { return "TPP" }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	// TPP only poisons slow-tier (CXL node) pages: fast-tier faults give
	// no placement signal and NUMA_BALANCING_MEMORY_TIERING skips them.
	p.scan = scan.Start(k, scan.Config{}, func(pg *vm.Page, now simclock.Time) {
		if pg.Tier == mem.SlowTier {
			k.Protect(pg)
		}
	})
	policy.ReserveHeadroom(k.Node())
}

// checkpointState is TPP's serializable dynamic state. The per-page
// fault timestamps live in pg.Meta, which the engine snapshot carries;
// only the scan-walker positions are TPP's own.
type checkpointState struct {
	Scan scan.SetState `json:"scan"`
}

// CheckpointState implements policy.Policy.
func (p *Policy) CheckpointState() (any, error) {
	return checkpointState{Scan: p.scan.State()}, nil
}

// RestoreCheckpoint implements policy.Policy.
func (p *Policy) RestoreCheckpoint(data []byte) error {
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	return p.scan.SetState(st.Scan)
}

// OnFault implements policy.Policy: promote on re-reference within the
// recency window; otherwise record the fault and wait for the next one.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {
	if pg.Tier != mem.SlowTier {
		return
	}
	if policy.ReReferenced(pg, now) {
		if policy.RetryPromote(p.k, pg, 2) == policy.MigrateTransient {
			// Busy/pinned page: a bounded sim-time backoff retries it
			// instead of waiting for yet another hint-fault pair.
			policy.PromoteBackoff(p.k, pg, 50*simclock.Millisecond, 3)
		}
	}
}
