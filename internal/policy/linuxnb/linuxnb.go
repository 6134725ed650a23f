// Package linuxnb implements the Linux-NB baseline: the vanilla kernel's
// auto NUMA-balancing scheme repurposed for tiering (numa_balancing=2 with
// demotion enabled), as described in the paper's §2.1.
//
// The kernel cyclically scans each process's address space, poisoning
// scan-step-sized ranges PROT_NONE; a fault on a poisoned page reveals an
// access, and because the slow tier is a CPU-less node, every faulting
// slow-tier page is promoted — effectively a most-recently-used policy
// with no frequency component, which is exactly the weakness Chrono
// addresses. Demotion happens only through kswapd's watermark reclaim
// (provided by the engine).
package linuxnb

import (
	"encoding/json"

	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/policy/scan"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// Policy is the Linux-NB baseline. Vanilla balancing poisons every page,
// fast-tier ones included: their faults are pure overhead on a CPU-less
// slow node.
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base               //chrono:rebuilt stateless method set
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach
	scan        *scan.Set     //chrono:state Scan
	// scanCfg holds the NUMA-balancing scan parameters (sysctl
	// numa_balancing_scan_*); its zero value is the scan defaults.
	scanCfg scan.Config //chrono:rebuilt configuration, fixed at construction
}

// New returns a Linux-NB policy.
func New() *Policy { return &Policy{} }

// Name implements policy.Policy.
func (p *Policy) Name() string { return "Linux-NB" }

// Attach implements policy.Policy: it starts the per-process scan clocks.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	p.scan = scan.Start(k, p.scanCfg, func(pg *vm.Page, now simclock.Time) {
		k.Protect(pg)
	})
}

// checkpointState is Linux-NB's serializable dynamic state: the
// scan-walker positions.
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

// OnFault implements policy.Policy: MRU promotion — any faulting slow-tier
// page is migrated toward the faulting CPU's node, i.e. the fast tier.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {
	if pg.Tier != mem.SlowTier {
		return
	}
	p.k.TryPromote(pg)
}
