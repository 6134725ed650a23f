// Package autotiering implements the AutoTiering baseline (Kim et al.,
// USENIX ATC '21) in its best-performing OPM-BD configuration
// (opportunistic promotion + background demotion), as characterized in the
// paper's §2.3: page-fault counters recorded as an 8-bit LAP (least
// accessed page) vector over the last eight scan periods, giving an
// effective frequency scale of 0–1 access/minute.
//
// On every scan period each page's LAP vector shifts left; a hint fault
// sets the newest bit. A page faulting with enough recent history is
// promoted opportunistically at fault time. A background thread demotes
// fast-tier pages whose LAP vector is empty. Maintaining the LAP lists
// costs substantial kernel time — the paper measures 14.1% kernel time,
// 2.2× the Linux-NB baseline — which the implementation charges per page
// per period.
package autotiering

import (
	"encoding/json"
	"math/bits"

	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/policy/scan"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

const (
	// promoteThreshold is the minimum popcount of the LAP vector for
	// opportunistic promotion at fault time: accessed in at least two of
	// the last eight periods.
	promoteThreshold = 2
	// lapBits is the history length in scan periods.
	lapBits = 8
	// backgroundPeriod is the demotion thread's cycle, the scan period.
	backgroundPeriod = simclock.Minute
	// lapMaintainNS is the kernel cost per page per LAP shift pass.
	// AutoTiering walks and reorders its per-page LAP lists every
	// background period; the paper measures 14.1% kernel time, 2.2x the
	// NUMA-balancing baseline (Figure 8).
	lapMaintainNS units.NS = 2000
)

// Policy is the AutoTiering baseline. The page's LAP vector lives in the
// low byte of pg.Meta.
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base               //chrono:rebuilt stateless method set
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach
	scan        *scan.Set     //chrono:state Scan
	lapCost     units.NS      //chrono:rebuilt lapMaintainNS, set by New
}

// New returns an AutoTiering policy.
func New() *Policy { return &Policy{lapCost: lapMaintainNS} }

// Name implements policy.Policy.
func (p *Policy) Name() string { return "AutoTiering" }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	// The fault-driven scan poisons all pages like NUMA balancing.
	p.scan = scan.Start(k, scan.Config{}, func(pg *vm.Page, now simclock.Time) {
		k.Protect(pg)
	})
	// LAP shift + background demotion pass.
	k.Clock().EveryKey("autotiering/background", backgroundPeriod, func(now simclock.Time) {
		p.background()
	})
}

// checkpointState is AutoTiering's serializable dynamic state. The LAP
// vectors live in pg.Meta, which the engine snapshot carries; only the
// scan-walker positions are AutoTiering's own.
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

func lap(pg *vm.Page) uint64       { return pg.Meta & 0xff }
func setLAP(pg *vm.Page, v uint64) { pg.Meta = (pg.Meta &^ 0xff) | (v & 0xff) }

// background shifts every tracked page's LAP vector and demotes fast-tier
// pages with empty history under watermark pressure.
func (p *Policy) background() {
	mask := uint64(1)<<lapBits - 1
	var cost units.NS
	var coldFast []*vm.Page
	for _, pg := range p.k.Pages() {
		if pg == nil {
			continue
		}
		cost += p.lapCost.Mul(p.k.CostScale())
		v := (lap(pg) << 1) & mask
		setLAP(pg, v)
		if pg.Tier == mem.FastTier && v == 0 {
			coldFast = append(coldFast, pg)
		}
	}
	p.k.ChargeKernel(cost)

	// Background demotion: keep headroom above the high watermark.
	node := p.k.Node()
	need := node.Watermarks(mem.FastTier).High - node.Free(mem.FastTier)
	for _, pg := range coldFast {
		if need <= 0 {
			break
		}
		if p.k.TryDemote(pg) == policy.MigrateOK {
			need -= int64(pg.Size)
		}
	}
}

// OnFault implements policy.Policy: record the access in the LAP vector
// and promote opportunistically when history qualifies.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {
	setLAP(pg, lap(pg)|1)
	if pg.Tier != mem.SlowTier {
		return
	}
	if bits.OnesCount64(lap(pg)) >= promoteThreshold {
		p.k.TryPromote(pg)
	}
}
