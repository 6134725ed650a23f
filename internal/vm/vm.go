// Package vm models the virtual-memory side of the simulated kernel:
// processes, virtual memory areas, software page tables with protection and
// flag bits, and base/huge page folding.
//
// Each resident page is a Page value carrying its placement (tier), its
// protection state (the PROT_NONE poisoning used by NUMA-balancing style
// scans), per-page flags (PG_probed, PG_demoted, ...), and two scratch
// metadata words that stand in for the "extended struct page" fields a
// tiering policy would add to the kernel (Chrono's CIT metadata is 4 bytes
// per page; the simulator gives policies two 64-bit words so every
// evaluated policy can be expressed without side tables).
//
// Access behaviour is *statistical*: the workload assigns every base page
// an access rate (accesses/second) and a read fraction. The engine package
// converts those rates into fault timing, accessed-bit reads, and latency
// accounting. The vm package itself is policy- and engine-agnostic.
package vm

import (
	"fmt"

	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/units"
)

// BasePagesPerHuge is the folding factor between base (4 KB) and huge
// (2 MB) pages, as in x86-64.
const BasePagesPerHuge = 512

// PageFlags is a bitset of per-page state flags.
type PageFlags uint16

// Page flag bits. ProtNone mirrors the PTE poisoning performed by
// Ticking-scan; Probed is Chrono's PG_probed DCSC marker; Demoted is
// Chrono's thrashing-monitor marker (paper §3.3.2); Huge marks a folded
// 2 MB page; Candidate is a generic "in the policy's candidate set" bit.
const (
	FlagProtNone PageFlags = 1 << iota
	FlagProbed
	FlagDemoted
	FlagHuge
	FlagCandidate
	FlagUnevictable
	// FlagSwapped marks a page reclaimed to backing storage under a
	// cgroup memory limit (§3.3.1): it stays in the page table but
	// occupies no tier memory, and its accesses pay the swap latency.
	FlagSwapped
)

// Has reports whether all bits in f are set.
func (p PageFlags) Has(f PageFlags) bool { return p&f == f }

// Page is one resident page (base or huge). Pages are identified by a
// dense global ID assigned by the engine, usable as an index into
// policy-side arrays.
type Page struct {
	ID   int64  // dense global index (assigned at map time)
	VPN  uint64 // first virtual page number covered
	Proc *Process

	Tier  mem.TierID
	Flags PageFlags
	// Size is the number of base pages this Page covers (1 or 512).
	Size int32

	// ProtTS is the virtual time at which the page was last marked
	// PROT_NONE (the Ticking-scan timestamp). Meaningful only while
	// FlagProtNone is set.
	ProtTS simclock.Time
	// LastFault is the virtual time of the most recent page fault taken
	// on this page (0 if never faulted).
	LastFault simclock.Time
	// DemoteTS is the time of the most recent demotion (thrash monitor).
	DemoteTS simclock.Time
	// PromoteTS is the time of the most recent promotion. Together with
	// DemoteTS it lets the engine and anti-thrash controllers recognize
	// promote→demote ping-pong without policy-private side tables.
	PromoteTS simclock.Time
	// ABitTS is the virtual time the simulated PTE accessed bit was last
	// cleared; AccessedTestAndClear answers relative to it.
	ABitTS simclock.Time

	// Meta and Meta2 are policy-private metadata words (the simulated
	// "extended struct page"). Their interpretation belongs to the
	// attached policy: Chrono packs the candidate-round CIT, AutoTiering
	// packs its 8-bit LAP vector, Memtis its PEBS counter, and so on.
	Meta  uint64
	Meta2 uint64

	// FaultSeq guards against stale fault events firing after the page
	// was unprotected and re-protected. Owned by the engine; it also keys
	// the engine's stateless fault-gap draws, so each protect round of a
	// page gets an independent deterministic gap.
	FaultSeq uint64
}

// IsHuge reports whether the page is a folded huge page.
func (p *Page) IsHuge() bool { return p.Size > 1 }

// VMA is a contiguous virtual memory area of a process, in base pages.
type VMA struct {
	Start uint64 // first VPN
	Len   uint64 // length in base pages
	Name  string
}

// End returns one past the last VPN.
func (v VMA) End() uint64 { return v.Start + v.Len }

// Process is one simulated address space. The paper evaluates both
// process-level policies (Memtis) and system-wide ones (Chrono), so the
// process carries its own page table plus the per-cgroup identity used by
// the multi-tenant experiment (Figure 9).
type Process struct {
	PID    int
	Name   string
	Cgroup int

	// Slot is the process's dense index in the engine's process table.
	// Owned by the engine; it gives fault-path code O(1) access to engine
	// per-process state without a PID map lookup.
	Slot int

	// DelayNS is extra user-side stall added before every access
	// (pmbench's delay parameter, §5.1.3: i units of 50 cycles).
	DelayNS units.NS

	// MemLimit is the cgroup memory.limit in base pages (0 = unlimited).
	// When resident memory exceeds it, the kernel reclaims slow-tier
	// pages of this process to backing storage (§3.3.1).
	MemLimit int64

	vmas []VMA
	// pages is the resident page table, indexed by PatternIndex(VPN). A
	// huge page occupies every covered slot (all of which are contiguous:
	// pages never span VMAs — InsertPage panics on a VPN outside every
	// VMA). A dense slice beats the former VPN-keyed map decisively on the
	// scan/fault hot paths.
	pages []*Page

	// weights and readFrac give the per-base-page access pattern set by
	// the workload; index is VPN - vmas[0].Start for the single-VMA case,
	// looked up via PatternIndex otherwise.
	weights  []float64
	readFrac []float64

	// dirty is the list of pattern indices changed by SetPattern since the
	// last ClearDirty, deduplicated through dirtyMark. The engine uses it
	// to update its per-process aggregates incrementally instead of
	// re-walking every VMA on each pattern flush.
	dirty     []int
	dirtyMark []bool

	// TotalWeight caches sum(weights) for rate normalization. SetPattern
	// maintains it incrementally.
	TotalWeight float64
}

// NewProcess creates a process with a single anonymous VMA of the given
// length in base pages.
func NewProcess(pid int, name string, lenPages uint64) *Process {
	p := &Process{
		PID:   pid,
		Name:  name,
		pages: make([]*Page, lenPages),
	}
	p.vmas = []VMA{{Start: 0x1000, Len: lenPages, Name: "anon"}}
	p.weights = make([]float64, lenPages)
	p.readFrac = make([]float64, lenPages)
	p.dirtyMark = make([]bool, lenPages)
	return p
}

// VMAs returns the process's memory areas.
func (p *Process) VMAs() []VMA { return p.vmas }

// AddVMA appends an additional memory area; its pattern arrays grow to
// cover it. The new VMA must not overlap existing ones.
func (p *Process) AddVMA(lenPages uint64, name string) VMA {
	last := p.vmas[len(p.vmas)-1]
	v := VMA{Start: last.End() + 0x1000, Len: lenPages, Name: name}
	p.vmas = append(p.vmas, v)
	p.pages = append(p.pages, make([]*Page, lenPages)...)
	p.weights = append(p.weights, make([]float64, lenPages)...)
	p.readFrac = append(p.readFrac, make([]float64, lenPages)...)
	p.dirtyMark = append(p.dirtyMark, make([]bool, lenPages)...)
	return v
}

// PatternIndex maps a VPN to its index in the weight/readFrac arrays, or
// -1 if the VPN is outside every VMA.
func (p *Process) PatternIndex(vpn uint64) int {
	var base uint64
	for _, v := range p.vmas {
		if vpn >= v.Start && vpn < v.End() {
			return int(base + (vpn - v.Start))
		}
		base += v.Len
	}
	return -1
}

// SetPattern assigns the access weight and read fraction of one base page,
// maintaining TotalWeight and recording the index on the dirty list (for
// the engine's incremental aggregate update). Writing back the values a
// page already has is a no-op and stays off the dirty list.
func (p *Process) SetPattern(vpn uint64, weight, readFrac float64) {
	i := p.PatternIndex(vpn)
	if i < 0 {
		panic(fmt.Sprintf("vm: SetPattern on unmapped vpn %#x", vpn))
	}
	if p.weights[i] == weight && p.readFrac[i] == readFrac {
		return
	}
	p.TotalWeight += weight - p.weights[i]
	p.weights[i] = weight
	p.readFrac[i] = readFrac
	if !p.dirtyMark[i] {
		p.dirtyMark[i] = true
		p.dirty = append(p.dirty, i)
	}
}

// DirtyIndexes returns the pattern indices changed since the last
// ClearDirty, in first-touch order. The slice is owned by the process;
// callers must not retain it across ClearDirty.
func (p *Process) DirtyIndexes() []int { return p.dirty }

// ClearDirty resets the dirty list after the engine has consumed it.
func (p *Process) ClearDirty() {
	for _, i := range p.dirty {
		p.dirtyMark[i] = false
	}
	p.dirty = p.dirty[:0]
}

// DropDirty is ClearDirty that also releases the list's storage, for a
// consumer that has just rebuilt everything the list covers: the initial
// pattern fill marks every page, and later flushes touch far fewer.
func (p *Process) DropDirty() {
	p.ClearDirty()
	p.dirty = nil
}

// IndexVPN is the inverse of PatternIndex: it maps a pattern index back to
// its VPN. It panics on an out-of-range index.
func (p *Process) IndexVPN(i int) uint64 {
	base := uint64(i)
	for _, v := range p.vmas {
		if base < v.Len {
			return v.Start + base
		}
		base -= v.Len
	}
	//chrono:allow hotalloc panic path only, never taken in a healthy run
	panic(fmt.Sprintf("vm: IndexVPN out of range: %d", i))
}

// Weight returns the access weight of the base page at vpn (0 if outside).
func (p *Process) Weight(vpn uint64) float64 {
	i := p.PatternIndex(vpn)
	if i < 0 {
		return 0
	}
	return p.weights[i]
}

// ReadFrac returns the read fraction of the base page at vpn.
func (p *Process) ReadFrac(vpn uint64) float64 {
	i := p.PatternIndex(vpn)
	if i < 0 {
		return 1
	}
	return p.readFrac[i]
}

// Pattern returns the process's per-base-page weight and read-fraction
// arrays, in pattern-index order. The slices are owned by the process;
// callers must copy them to keep a snapshot.
func (p *Process) Pattern() (weights, readFrac []float64) { return p.weights, p.readFrac }

// RestorePattern overwrites the whole access pattern and TotalWeight
// verbatim (a checkpoint restore) and empties the dirty list: the engine
// state restored alongside already reflects the pattern.
func (p *Process) RestorePattern(weights, readFrac []float64, total float64) error {
	if len(weights) != len(p.weights) || len(readFrac) != len(p.readFrac) {
		return fmt.Errorf("vm: restore pattern of pid %d: %d/%d entries recorded, %d built",
			p.PID, len(weights), len(readFrac), len(p.weights))
	}
	copy(p.weights, weights)
	copy(p.readFrac, readFrac)
	p.TotalWeight = total
	p.ClearDirty()
	return nil
}

// RecomputeTotalWeight refreshes the cached pattern weight sum.
func (p *Process) RecomputeTotalWeight() {
	var sum float64
	for _, w := range p.weights {
		sum += w
	}
	p.TotalWeight = sum
}

// PageAt returns the resident page covering vpn, or nil.
func (p *Process) PageAt(vpn uint64) *Page {
	// Huge pages are registered at every covered slot at map time, so a
	// simple lookup suffices; nil means not resident.
	i := p.PatternIndex(vpn)
	if i < 0 {
		return nil
	}
	return p.pages[i]
}

// InsertPage registers a resident page in the process page table. Every
// covered VPN must lie inside a VMA.
func (p *Process) InsertPage(pg *Page) {
	for i := uint64(0); i < uint64(pg.Size); i++ {
		idx := p.PatternIndex(pg.VPN + i)
		if idx < 0 {
			panic(fmt.Sprintf("vm: InsertPage vpn %#x outside every VMA", pg.VPN+i))
		}
		p.pages[idx] = pg
	}
}

// RemovePage unregisters a resident page.
func (p *Process) RemovePage(pg *Page) {
	for i := uint64(0); i < uint64(pg.Size); i++ {
		idx := p.PatternIndex(pg.VPN + i)
		if idx >= 0 {
			p.pages[idx] = nil
		}
	}
}

// ResidentPages returns the number of resident base pages.
func (p *Process) ResidentPages() int64 {
	var n int64
	// A page's covered slots are contiguous, so counting it at its first
	// slot and skipping its span dedups huge pages without a seen-set.
	for i := 0; i < len(p.pages); {
		pg := p.pages[i]
		if pg == nil {
			i++
			continue
		}
		n += int64(pg.Size)
		i += int(pg.Size)
	}
	return n
}

// PageWeight returns the total access weight of the base pages covered by
// pg, and the weighted read fraction.
func (p *Process) PageWeight(pg *Page) (weight, readFrac float64) {
	var w, rw float64
	for i := uint64(0); i < uint64(pg.Size); i++ {
		idx := p.PatternIndex(pg.VPN + i)
		if idx < 0 {
			continue
		}
		w += p.weights[idx]
		rw += p.weights[idx] * p.readFrac[idx]
	}
	if w > 0 {
		return w, rw / w
	}
	return 0, 1
}
