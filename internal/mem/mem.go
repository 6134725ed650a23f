// Package mem models the physical memory substrate of a tiered system: a
// fast tier (local DRAM) and a slow tier (Optane PM / CXL-attached memory
// exposed as a CPU-less NUMA node), with per-tier capacity accounting,
// allocation watermarks, an asymmetric read/write latency model, and
// migration traffic counters.
//
// Capacities are tracked in base pages (4 KB units). The simulator scales
// physical sizes down (see engine.Config.PagesPerGB) while preserving the
// fast:slow capacity ratio, which is what the paper's results depend on.
package mem

import (
	"fmt"

	"chrono/internal/simclock"
	"chrono/internal/units"
)

// TierID identifies a memory tier.
type TierID int

// The two tiers of the evaluated platform (paper §5: 64 GB DDR4 DRAM as
// fast memory, 256 GB Optane PM in a CPU-less NUMA node as slow memory).
const (
	FastTier TierID = iota // local DRAM
	SlowTier               // NVM / CXL memory
	NumTiers
)

// String implements fmt.Stringer.
func (t TierID) String() string {
	switch t {
	case FastTier:
		return "fast(DRAM)"
	case SlowTier:
		return "slow(NVM)"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Other returns the opposite tier in a two-tier system.
func (t TierID) Other() TierID {
	if t == FastTier {
		return SlowTier
	}
	return FastTier
}

// LatencyModel gives per-tier access latency in nanoseconds.
type LatencyModel struct {
	ReadNS  [NumTiers]units.NS
	WriteNS [NumTiers]units.NS
}

// Access returns the latency of one access to tier t.
func (m LatencyModel) Access(t TierID, write bool) units.NS {
	if write {
		return m.WriteNS[t]
	}
	return m.ReadNS[t]
}

// latency is the testbed's device latencies, following the paper's §1
// figures (DRAM 50-90 ns, slow memory 150-270 ns) and the known
// read/write asymmetry of Optane PM (§5.1.1: "the biased read/write
// performance of Optane PM").
var latency = LatencyModel{
	ReadNS:  [NumTiers]units.NS{FastTier: 75, SlowTier: 200},
	WriteNS: [NumTiers]units.NS{FastTier: 80, SlowTier: 420},
}

// copyBandwidth is the sustainable page-copy bandwidth between tiers:
// the one-direction Optane write bound.
const copyBandwidth units.BytesPerSec = 6e9

// Watermarks are per-tier free-page thresholds, in pages. They extend the
// Linux min/low/high zone watermarks with Chrono's promotion-aware "pro"
// watermark (paper §3.3.1), which sits above high; when free memory falls
// below High, proactive demotion runs until free memory reaches Pro.
type Watermarks struct {
	Min  int64
	Low  int64
	High int64
	Pro  int64
}

// Tier is one physical memory tier.
type Tier struct {
	ID       TierID
	Capacity int64 // total pages
	free     int64 // free pages
	marks    Watermarks
}

// Node groups the tiers of the simulated machine and tracks migration
// traffic. It corresponds to the whole two-socket testbed collapsed to
// one fast node plus one CPU-less slow node.
type Node struct {
	tiers [NumTiers]*Tier

	// Pages copied per direction.
	PromotedPages int64
	DemotedPages  int64

	// PageSizeBytes is the real bytes one tracked page stands for.
	PageSizeBytes int64
}

// Config sizes a Node.
type Config struct {
	FastPages int64
	SlowPages int64
	// PageSizeBytes is the real bytes one tracked page stands for
	// (4096 × the simulator's capacity scale). Default 4096.
	PageSizeBytes int64
}

// NewNode builds a node with both tiers fully free and default watermarks
// (min/low/high at 0.5/1/2 % of capacity, pro initially equal to high).
func NewNode(cfg Config) *Node {
	if cfg.FastPages <= 0 || cfg.SlowPages <= 0 {
		panic("mem: non-positive tier capacity")
	}
	if cfg.PageSizeBytes == 0 {
		cfg.PageSizeBytes = 4096
	}
	n := &Node{PageSizeBytes: cfg.PageSizeBytes}
	for id, capPages := range [NumTiers]int64{FastTier: cfg.FastPages, SlowTier: cfg.SlowPages} {
		t := &Tier{ID: TierID(id), Capacity: capPages, free: capPages}
		t.marks = Watermarks{
			Min:  capPages / 200,
			Low:  capPages / 100,
			High: capPages / 50,
			Pro:  capPages / 50,
		}
		n.tiers[id] = t
	}
	return n
}

// Tier returns the tier with the given ID.
func (n *Node) Tier(id TierID) *Tier { return n.tiers[id] }

// Latency returns the node's latency model.
func (n *Node) Latency() LatencyModel { return latency }

// Free returns the free pages in tier id.
func (n *Node) Free(id TierID) int64 { return n.tiers[id].free }

// Used returns the allocated pages in tier id.
func (n *Node) Used(id TierID) int64 { return n.tiers[id].Capacity - n.tiers[id].free }

// Capacity returns the total pages of tier id.
func (n *Node) Capacity(id TierID) int64 { return n.tiers[id].Capacity }

// Watermarks returns the current watermarks of tier id.
func (n *Node) Watermarks(id TierID) Watermarks { return n.tiers[id].marks }

// SetProWatermark raises/lowers the promotion-aware watermark of the fast
// tier. Chrono recomputes the high→pro gap as
// 2 × scan_interval × rate_limit (paper §3.3.1).
func (n *Node) SetProWatermark(pages int64) {
	t := n.tiers[FastTier]
	if pages < t.marks.High {
		pages = t.marks.High
	}
	if pages > t.Capacity {
		pages = t.Capacity
	}
	t.marks.Pro = pages
}

// ErrNoMemory is returned when an allocation cannot be satisfied.
var ErrNoMemory = fmt.Errorf("mem: out of memory")

// Alloc reserves pages in the given tier. It fails (rather than reclaiming)
// when the tier is exhausted; callers implement fallback/demotion policy.
func (n *Node) Alloc(id TierID, pages int64) error {
	t := n.tiers[id]
	if t.free < pages {
		return ErrNoMemory
	}
	t.free -= pages
	return nil
}

// Free releases pages back to the given tier.
func (n *Node) FreePages(id TierID, pages int64) {
	t := n.tiers[id]
	t.free += pages
	if t.free > t.Capacity {
		panic(fmt.Sprintf("mem: tier %v free %d exceeds capacity %d", id, t.free, t.Capacity))
	}
}

// BelowHigh reports whether free memory in tier id is below the high
// watermark (the proactive-demotion trigger for the fast tier).
func (n *Node) BelowHigh(id TierID) bool {
	t := n.tiers[id]
	return t.free < t.marks.High
}

// BelowPro reports whether free memory in tier id is below the pro
// watermark (the proactive-demotion target for the fast tier).
func (n *Node) BelowPro(id TierID) bool {
	t := n.tiers[id]
	return t.free < t.marks.Pro
}

// DemotionTarget returns how many pages must be freed from tier id to
// reach its pro watermark (0 when already above it).
func (n *Node) DemotionTarget(id TierID) int64 {
	t := n.tiers[id]
	if t.free >= t.marks.Pro {
		return 0
	}
	return t.marks.Pro - t.free
}

// MovePages transfers an allocation of pages from one tier to another,
// recording migration stats and returning the virtual copy time.
func (n *Node) MovePages(from, to TierID, pages int64) (simclock.Duration, error) {
	if err := n.Alloc(to, pages); err != nil {
		return 0, err
	}
	n.FreePages(from, pages)
	if to == FastTier {
		n.PromotedPages += pages
	} else {
		n.DemotedPages += pages
	}
	bytes := units.Bytes(pages * n.PageSizeBytes)
	ns := bytes.Over(copyBandwidth).NS()
	return simclock.Duration(ns), nil
}

// CopyPages replicates an allocation of pages from one tier into another
// without releasing the source — the transactional (Nomad-style) migration
// primitive: after the copy both tiers hold the pages, and the caller
// decides later which side to free (commit) or whether to roll back.
// Migration stats count the copy like a regular move; the retained source
// allocation shows up as used > resident until the shadow is consumed.
func (n *Node) CopyPages(from, to TierID, pages int64) (simclock.Duration, error) {
	if err := n.Alloc(to, pages); err != nil {
		return 0, err
	}
	if to == FastTier {
		n.PromotedPages += pages
	} else {
		n.DemotedPages += pages
	}
	bytes := units.Bytes(pages * n.PageSizeBytes)
	ns := bytes.Over(copyBandwidth).NS()
	return simclock.Duration(ns), nil
}

// CopyTime returns the virtual time needed to copy pages between tiers at
// the node's sustainable copy bandwidth (the transactional-abort window:
// a write landing within it aborts a Nomad-style migration).
func (n *Node) CopyTime(pages int64) simclock.Duration {
	bytes := units.Bytes(pages * n.PageSizeBytes)
	return simclock.Duration(bytes.Over(copyBandwidth).NS())
}

// FastRatio returns the share of total capacity provided by the fast tier,
// e.g. 0.25 for the paper's 64 GB DRAM / 192 GB NVM split.
func (n *Node) FastRatio() float64 {
	total := n.tiers[FastTier].Capacity + n.tiers[SlowTier].Capacity
	return float64(n.tiers[FastTier].Capacity) / float64(total)
}
