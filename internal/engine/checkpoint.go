package engine

// Engine checkpoint/restore: capture every piece of mutable simulation
// state into a plain serializable struct, and overlay such a capture onto
// a freshly rebuilt engine so the resumed run is bit-identical to one
// that never stopped (DESIGN.md "Checkpoint format").
//
// The snapshot instant is *between events*: Snapshot must only be called
// before Run, or from a clock AfterStep hook while a run is in flight.
// Restore expects an engine constructed exactly like the original —
// same Config, same workload Build, same policy Attached — and overlays
// dynamic state on top of that structure. Static structure (VMAs, access
// patterns, thread counts, sysctl registrations, closures) is therefore
// rebuilt by code, not serialized; anything a run mutates is serialized.
// Every clock event is keyed and every policy carries checkpoint state,
// so any run can be snapshotted. The one piece of workload state a run
// mutates is the access pattern of dynamic workloads (drift, rounds,
// trace phases, adversarial scenarios); those register the process with
// EnablePatternRestore and the snapshot carries its pattern verbatim.
// Static workloads do not register, so their snapshots stay small.

import (
	"encoding/json"
	"fmt"
	"sort"

	"chrono/internal/checkpoint"
	"chrono/internal/faultinject"
	"chrono/internal/lru"
	"chrono/internal/mem"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/stats"
	"chrono/internal/vm"
)

// PageTableState is the dense page table in columnar form: column i of
// every slice describes the page with ID[i]. Len is the table length
// including freed (nil) slots, so restored IDs keep their positions.
type PageTableState struct {
	Len int `json:"len"`

	ID        checkpoint.Ints[int64]         `json:"id"`
	VPN       checkpoint.Ints[uint64]        `json:"vpn"`
	PID       checkpoint.Ints[int]           `json:"pid"`
	Tier      checkpoint.Ints[int]           `json:"tier"`
	Flags     checkpoint.Ints[uint16]        `json:"flags"`
	Size      checkpoint.Ints[int32]         `json:"size"`
	ProtTS    checkpoint.Ints[simclock.Time] `json:"prot_ts"`
	LastFault checkpoint.Ints[simclock.Time] `json:"last_fault"`
	DemoteTS  checkpoint.Ints[simclock.Time] `json:"demote_ts"`
	PromoteTS checkpoint.Ints[simclock.Time] `json:"promote_ts"`
	ABitTS    checkpoint.Ints[simclock.Time] `json:"abit_ts"`
	Meta      checkpoint.Ints[uint64]        `json:"meta"`
	Meta2     checkpoint.Ints[uint64]        `json:"meta2"`
	FaultSeq  checkpoint.Ints[uint64]        `json:"fault_seq"`
	// W/RF are the engine's cached page weight and read fraction. They are
	// serialized rather than recomputed because SplitHuge stores the true
	// read fraction for zero-weight fragments while PageWeight reports 1.
	W  checkpoint.Floats `json:"w"`
	RF checkpoint.Floats `json:"rf"`

	// EverSlow/EverPromoted are sparse ID sets (most pages are in neither).
	EverSlow     checkpoint.Ints[int64] `json:"ever_slow,omitempty"`
	EverPromoted checkpoint.Ints[int64] `json:"ever_promoted,omitempty"`

	// Shadowed is the sparse ID set of pages holding a slow-tier shadow
	// copy (Nomad transactional promotion); ShadowTS[i] is the shadow cut
	// time of Shadowed[i].
	Shadowed checkpoint.Ints[int64]         `json:"shadowed,omitempty"`
	ShadowTS checkpoint.Ints[simclock.Time] `json:"shadow_ts,omitempty"`
}

// ProcRecord is the dynamic engine-side state of one process.
type ProcRecord struct {
	PID int `json:"pid"`

	WRead  [mem.NumTiers]float64 `json:"w_read"`
	WWrite [mem.NumTiers]float64 `json:"w_write"`
	WTot   float64               `json:"w_tot"`
	WSwap  float64               `json:"w_swap"`

	Rate            float64 `json:"rate"`
	FaultOverheadNS float64 `json:"fault_overhead_ns"`
	EpochFaults     float64 `json:"epoch_faults"`

	ResidentFast int64 `json:"resident_fast"`
	ResidentSlow int64 `json:"resident_slow"`
	ResidentSwap int64 `json:"resident_swap"`
}

// PendingProtRecord serializes one deferred Protect: the page, the fault
// sequence the Protect stamped, and the injected delivery delay drawn at
// Protect time. Materialization is stateless, so this is all a restore
// needs to reproduce the eventual timer exactly.
type PendingProtRecord struct {
	ID      int64             `json:"id"`
	Seq     uint64            `json:"seq"`
	DelayNS simclock.Duration `json:"delay_ns"`
}

// PatternRecord is the access pattern of one process registered with
// EnablePatternRestore, verbatim: per-base-page weights and read
// fractions in pattern-index order, and the cached weight sum.
type PatternRecord struct {
	PID         int               `json:"pid"`
	W           checkpoint.Floats `json:"w"`
	RF          checkpoint.Floats `json:"rf"`
	TotalWeight float64           `json:"total_weight"`
}

// MetricsState is the serializable form of Metrics (histograms as sparse
// bucket states).
type MetricsState struct {
	Duration simclock.Time `json:"duration"`

	Accesses     float64 `json:"accesses"`
	FastAccesses float64 `json:"fast_accesses"`
	Reads        float64 `json:"reads"`
	Writes       float64 `json:"writes"`

	Faults          float64 `json:"faults"`
	Promotions      int64   `json:"promotions"`
	Demotions       int64   `json:"demotions"`
	SwapOuts        int64   `json:"swap_outs"`
	SwapIns         int64   `json:"swap_ins"`
	MigratedBytes   float64 `json:"migrated_bytes"`
	ContextSwitches float64 `json:"context_switches"`

	KernelNS float64 `json:"kernel_ns"`
	AppNS    float64 `json:"app_ns"`

	FailedPromotions   int64   `json:"failed_promotions"`
	FailedDemotions    int64   `json:"failed_demotions"`
	AbortedMigrationNS float64 `json:"aborted_migration_ns"`
	PEBSDropped        float64 `json:"pebs_dropped"`
	MoveTierErrors     int64   `json:"move_tier_errors"`

	RePromotions    int64   `json:"re_promotions,omitempty"`
	ThrashDemotions int64   `json:"thrash_demotions,omitempty"`
	ThrashBytes     float64 `json:"thrash_bytes,omitempty"`
	ShadowDemotions int64   `json:"shadow_demotions,omitempty"`
	ShadowStale     int64   `json:"shadow_stale,omitempty"`
	ShadowReclaims  int64   `json:"shadow_reclaims,omitempty"`
	NomadAborts     int64   `json:"nomad_aborts,omitempty"`

	Lat      stats.HistogramState `json:"lat"`
	LatRead  stats.HistogramState `json:"lat_read"`
	LatWrite stats.HistogramState `json:"lat_write"`
}

// EngineState is a complete dynamic snapshot of a simulation between two
// events. It serializes deterministically: identical state always yields
// identical JSON bytes (slices in ID order, no map iteration anywhere).
type EngineState struct {
	Clock *simclock.State `json:"clock"`

	RMaster   rng.State `json:"r_master"`
	RFault    rng.State `json:"r_fault"`
	RPolicy   rng.State `json:"r_policy"`
	RWorkload rng.State `json:"r_workload"`
	RPEBS     rng.State `json:"r_pebs"`
	RShadow   rng.State `json:"r_shadow"`

	Inj *faultinject.State `json:"inj,omitempty"`

	Node  mem.NodeState  `json:"node"`
	Pages PageTableState `json:"pages"`
	Procs []ProcRecord   `json:"procs"`
	// Patterns holds the processes registered with EnablePatternRestore,
	// in registration order.
	Patterns []PatternRecord `json:"patterns,omitempty"`

	KLRU [mem.NumTiers]lru.TwoListState `json:"k_lru"`

	EpochMigBytes float64 `json:"epoch_mig_bytes"`
	KernelNSEpoch float64 `json:"kernel_ns_epoch"`
	KernelFrac    float64 `json:"kernel_frac"`
	MigTokens     float64 `json:"mig_tokens"`
	SlowUtilEMA   float64 `json:"slow_util_ema"`
	FastUtilEMA   float64 `json:"fast_util_ema"`
	SlowLatMult   float64 `json:"slow_lat_mult"`
	FastLatMult   float64 `json:"fast_lat_mult"`

	// PEBS alias cache: the exact table contents are rebuilt from AliasW
	// (construction is deterministic and draws no randomness), so only the
	// inputs and staleness flags are stored.
	AliasIDs         checkpoint.Ints[int64] `json:"alias_ids,omitempty"`
	AliasW           checkpoint.Floats      `json:"alias_w,omitempty"`
	AliasBuiltAt     simclock.Time          `json:"alias_built_at"`
	AliasWeightDirty bool                   `json:"alias_weight_dirty,omitempty"`
	AliasStructural  bool                   `json:"alias_structural,omitempty"`
	HasAlias         bool                   `json:"has_alias,omitempty"`

	// PendingFaults are the materialized fault timers, sorted by
	// (At, ID, Seq); PendingProts are deferred Protects not yet
	// materialized, sorted by (ID, Seq). The canonical order makes the
	// bytes independent of the queue's heap layout.
	PendingFaults []simclock.ShardEntry `json:"pending_faults,omitempty"`
	PendingProts  []PendingProtRecord   `json:"pending_prots,omitempty"`

	// Shadow ledger: FIFO reclaim order (may hold stale entries, filtered
	// on pop) and total base pages held as shadow copies.
	ShadowFIFO checkpoint.Ints[int64] `json:"shadow_fifo,omitempty"`
	ShadowBase int64                  `json:"shadow_base,omitempty"`

	NumaTiering int64         `json:"numa_tiering"`
	Horizon     simclock.Time `json:"horizon"`

	Metrics MetricsState `json:"metrics"`

	// PolicyName guards against restoring into a different policy; Policy
	// is the attached policy's own checkpoint state.
	PolicyName string          `json:"policy_name"`
	Policy     json.RawMessage `json:"policy,omitempty"`
}

// Snapshot captures the engine's complete dynamic state. It fails only
// when the attached policy cannot capture or marshal its own state.
func (e *Engine) Snapshot() (*EngineState, error) {
	st := &EngineState{
		Clock:     e.clock.Snapshot(),
		RMaster:   e.rMaster.State(),
		RFault:    e.rFault.State(),
		RPolicy:   e.rPolicy.State(),
		RWorkload: e.rWorkload.State(),
		RPEBS:     e.rPEBS.State(),
		RShadow:   e.rShadow.State(),
		Inj:       e.inj.State(),
		Node:      e.node.State(),

		EpochMigBytes: e.epochMigBytes,
		KernelNSEpoch: e.kernelNSEpoch,
		KernelFrac:    e.kernelFrac,
		MigTokens:     e.migTokens,
		SlowUtilEMA:   e.slowUtilEMA,
		FastUtilEMA:   e.fastUtilEMA,
		SlowLatMult:   e.slowLatMult,
		FastLatMult:   e.fastLatMult,

		AliasIDs:         append([]int64(nil), e.aliasIDs...),
		AliasW:           append([]float64(nil), e.aliasW[:len(e.aliasIDs)]...),
		AliasBuiltAt:     e.aliasBuiltAt,
		AliasWeightDirty: e.aliasWeightDirty,
		AliasStructural:  e.aliasStructural,
		HasAlias:         e.aliasTable != nil,

		ShadowFIFO: append([]int64(nil), e.shadowFIFO...),
		ShadowBase: e.shadowBase,

		NumaTiering: e.numaTiering,
		Horizon:     e.horizon,
		Metrics:     e.metricsState(),
	}
	for t := range e.kLRU {
		st.KLRU[t] = e.kLRU[t].State()
	}
	st.Pages = e.pageTableState()
	// Stale fault records (the page was re-protected, unprotected, or
	// freed since they were queued) are filtered out: replay would drop
	// them anyway, so omitting them is semantics-free and keeps the bytes
	// a pure function of simulation state rather than of queue-replacement
	// history.
	live := func(id int64, seq uint64) bool {
		if id < 0 || id >= int64(len(e.pages)) {
			return false
		}
		pg := e.pages[id]
		return pg != nil && pg.FaultSeq == seq && pg.Flags.Has(vm.FlagProtNone)
	}
	for _, en := range e.faultQ.AppendEntries(nil) {
		if live(en.ID, en.Seq) {
			st.PendingFaults = append(st.PendingFaults, en)
		}
	}
	for _, pp := range e.pendingProts {
		if live(pp.id, pp.seq) {
			st.PendingProts = append(st.PendingProts, PendingProtRecord{ID: pp.id, Seq: pp.seq, DelayNS: pp.delay})
		}
	}
	sort.Slice(st.PendingFaults, func(i, j int) bool {
		return st.PendingFaults[i].Before(st.PendingFaults[j])
	})
	sort.Slice(st.PendingProts, func(i, j int) bool {
		a, b := st.PendingProts[i], st.PendingProts[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Seq < b.Seq
	})
	for _, ps := range e.procs {
		st.Procs = append(st.Procs, ProcRecord{
			PID:             ps.proc.PID,
			WRead:           ps.wRead,
			WWrite:          ps.wWrite,
			WTot:            ps.wTot,
			WSwap:           ps.wSwap,
			Rate:            ps.rate,
			FaultOverheadNS: ps.faultOverheadNS,
			EpochFaults:     ps.epochFaults,
			ResidentFast:    ps.residentFast,
			ResidentSlow:    ps.residentSlow,
			ResidentSwap:    ps.residentSwap,
		})
	}
	for _, p := range e.patternRestore {
		w, rf := p.Pattern()
		st.Patterns = append(st.Patterns, PatternRecord{
			PID:         p.PID,
			W:           append([]float64(nil), w...),
			RF:          append([]float64(nil), rf...),
			TotalWeight: p.TotalWeight,
		})
	}
	if e.pol != nil {
		pst, err := e.pol.CheckpointState()
		if err != nil {
			return nil, fmt.Errorf("engine: snapshot policy %s: %w", e.pol.Name(), err)
		}
		raw, err := json.Marshal(pst)
		if err != nil {
			return nil, fmt.Errorf("engine: marshal policy %s state: %w", e.pol.Name(), err)
		}
		st.PolicyName = e.pol.Name()
		st.Policy = raw
	}
	return st, nil
}

func (e *Engine) pageTableState() PageTableState {
	st := PageTableState{Len: len(e.pages)}
	// Size the dense columns once.
	live := 0
	for _, pg := range e.pages {
		if pg != nil {
			live++
		}
	}
	st.ID = make(checkpoint.Ints[int64], 0, live)
	st.VPN = make(checkpoint.Ints[uint64], 0, live)
	st.PID = make(checkpoint.Ints[int], 0, live)
	st.Tier = make(checkpoint.Ints[int], 0, live)
	st.Flags = make(checkpoint.Ints[uint16], 0, live)
	st.Size = make(checkpoint.Ints[int32], 0, live)
	st.ProtTS = make(checkpoint.Ints[simclock.Time], 0, live)
	st.LastFault = make(checkpoint.Ints[simclock.Time], 0, live)
	st.DemoteTS = make(checkpoint.Ints[simclock.Time], 0, live)
	st.PromoteTS = make(checkpoint.Ints[simclock.Time], 0, live)
	st.ABitTS = make(checkpoint.Ints[simclock.Time], 0, live)
	st.Meta = make(checkpoint.Ints[uint64], 0, live)
	st.Meta2 = make(checkpoint.Ints[uint64], 0, live)
	st.FaultSeq = make(checkpoint.Ints[uint64], 0, live)
	st.W = make(checkpoint.Floats, 0, live)
	st.RF = make(checkpoint.Floats, 0, live)
	for id, pg := range e.pages {
		if pg == nil {
			continue
		}
		st.ID = append(st.ID, pg.ID)
		st.VPN = append(st.VPN, pg.VPN)
		st.PID = append(st.PID, pg.Proc.PID)
		st.Tier = append(st.Tier, int(pg.Tier))
		st.Flags = append(st.Flags, uint16(pg.Flags))
		st.Size = append(st.Size, pg.Size)
		st.ProtTS = append(st.ProtTS, pg.ProtTS)
		st.LastFault = append(st.LastFault, pg.LastFault)
		st.DemoteTS = append(st.DemoteTS, pg.DemoteTS)
		st.PromoteTS = append(st.PromoteTS, pg.PromoteTS)
		st.ABitTS = append(st.ABitTS, pg.ABitTS)
		st.Meta = append(st.Meta, pg.Meta)
		st.Meta2 = append(st.Meta2, pg.Meta2)
		st.FaultSeq = append(st.FaultSeq, pg.FaultSeq)
		st.W = append(st.W, e.pageW[id])
		st.RF = append(st.RF, e.pageRF[id])
		if e.everSlow[id] {
			st.EverSlow = append(st.EverSlow, pg.ID)
		}
		if e.everPromoted[id] {
			st.EverPromoted = append(st.EverPromoted, pg.ID)
		}
		if e.shadowActive(pg.ID) {
			st.Shadowed = append(st.Shadowed, pg.ID)
			st.ShadowTS = append(st.ShadowTS, e.shadowTS[pg.ID])
		}
	}
	return st
}

func (e *Engine) metricsState() MetricsState { return e.M.State() }

// State captures the metrics in serializable form — the inverse of
// MetricsState.Materialize.
func (m *Metrics) State() MetricsState {
	return MetricsState{
		Duration:           m.Duration,
		Accesses:           m.Accesses,
		FastAccesses:       m.FastAccesses,
		Reads:              m.Reads,
		Writes:             m.Writes,
		Faults:             m.Faults,
		Promotions:         m.Promotions,
		Demotions:          m.Demotions,
		SwapOuts:           m.SwapOuts,
		SwapIns:            m.SwapIns,
		MigratedBytes:      m.MigratedBytes,
		ContextSwitches:    m.ContextSwitches,
		KernelNS:           m.KernelNS,
		AppNS:              m.AppNS,
		FailedPromotions:   m.FailedPromotions,
		FailedDemotions:    m.FailedDemotions,
		AbortedMigrationNS: m.AbortedMigrationNS,
		PEBSDropped:        m.PEBSDropped,
		MoveTierErrors:     m.MoveTierErrors,
		RePromotions:       m.RePromotions,
		ThrashDemotions:    m.ThrashDemotions,
		ThrashBytes:        m.ThrashBytes,
		ShadowDemotions:    m.ShadowDemotions,
		ShadowStale:        m.ShadowStale,
		ShadowReclaims:     m.ShadowReclaims,
		NomadAborts:        m.NomadAborts,
		Lat:                m.Lat.State(),
		LatRead:            m.LatRead.State(),
		LatWrite:           m.LatWrite.State(),
	}
}

// Restore overlays a captured EngineState onto this engine, which must be
// freshly built from the same Config, with the same workload Built and the
// same policy Attached, and must not have Run yet. On success the engine
// continues with ResumeRun; on error the engine is in an undefined state
// and must be discarded (the caller replays the run from scratch).
func (e *Engine) Restore(st *EngineState) error {
	_, err := e.restore(st, false)
	return err
}

// RestoreSwap overlays a captured EngineState onto an engine freshly built
// from the same Config and workload but with a DIFFERENT policy attached —
// the live-reconfiguration path. The recorded policy state is discarded
// (the new policy keeps its Attach-time state, exactly as if it had just
// been handed a running system), and the clock is rebuilt with
// simclock.RestoreInto: the old policy's pending periodic work is dropped
// and the new policy's tickers are adopted on their natural phase. All
// simulation state — pages, processes, LRUs, RNG streams, metrics, pending
// faults — carries over verbatim, so the run continues without dropping.
// Returns the number of old-policy clock events dropped.
func (e *Engine) RestoreSwap(st *EngineState) (dropped int, err error) {
	return e.restore(st, true)
}

// restore is the shared body of Restore and RestoreSwap; swap selects the
// cross-policy behavior described on RestoreSwap.
func (e *Engine) restore(st *EngineState, swap bool) (dropped int, err error) {
	polName := ""
	if e.pol != nil {
		polName = e.pol.Name()
	}
	if !swap && polName != st.PolicyName {
		return 0, fmt.Errorf("engine: restore: checkpoint is for policy %q, engine has %q", st.PolicyName, polName)
	}
	if (e.inj == nil) != (st.Inj == nil) {
		return 0, fmt.Errorf("engine: restore: fault-injection plan mismatch (checkpoint injector: %v, engine injector: %v)",
			st.Inj != nil, e.inj != nil)
	}
	if err := e.restorePages(&st.Pages); err != nil {
		return 0, err
	}
	if err := e.restoreProcs(st.Procs); err != nil {
		return 0, err
	}
	if err := e.restorePatterns(st.Patterns); err != nil {
		return 0, err
	}
	e.faultQ.Reset()
	e.pendingProts = e.pendingProts[:0]
	for _, en := range st.PendingFaults {
		if en.ID < 0 || en.ID >= int64(len(e.pages)) || e.pages[en.ID] == nil {
			return 0, fmt.Errorf("engine: restore: pending fault references page %d", en.ID)
		}
		e.faultQ.Push(en)
	}
	for _, pp := range st.PendingProts {
		if pp.ID < 0 || pp.ID >= int64(len(e.pages)) || e.pages[pp.ID] == nil {
			return 0, fmt.Errorf("engine: restore: pending protect references page %d", pp.ID)
		}
		e.pendingProts = append(e.pendingProts, pendingProt{id: pp.ID, seq: pp.Seq, delay: pp.DelayNS})
	}
	// The tier lists share one link family: empty every pair before any
	// refill, or pages that changed tiers since the snapshot would still
	// occupy their old slots.
	for t := range e.kLRU {
		e.kLRU[t].Clear()
	}
	for t := range e.kLRU {
		for _, ids := range [][]int64{st.KLRU[t].Active, st.KLRU[t].Inactive} {
			for _, id := range ids {
				if id < 0 || id >= int64(len(e.pages)) || e.pages[id] == nil {
					return 0, fmt.Errorf("engine: restore: LRU tier %d references page %d", t, id)
				}
			}
		}
		e.kLRU[t].SetState(st.KLRU[t])
	}
	if err := e.node.SetState(st.Node); err != nil {
		return 0, err
	}

	e.rMaster.SetState(st.RMaster)
	e.rFault.SetState(st.RFault)
	e.rPolicy.SetState(st.RPolicy)
	e.rWorkload.SetState(st.RWorkload)
	e.rPEBS.SetState(st.RPEBS)
	e.rShadow.SetState(st.RShadow)
	e.inj.SetState(st.Inj)

	// Every live shadow has a FIFO entry; MigrationsDry relies on an
	// empty FIFO meaning "no shadow". Count the shadows the FIFO covers
	// by clearing their flags (restorePages set them), then set them all
	// back.
	queued := 0
	for _, id := range st.ShadowFIFO {
		if e.shadowActive(id) {
			e.shadowed[id] = false
			queued++
		}
	}
	for _, id := range st.Pages.Shadowed {
		e.shadowed[id] = true
	}
	if queued != len(st.Pages.Shadowed) {
		return 0, fmt.Errorf("engine: restore: %d shadowed pages, %d of them in the shadow FIFO",
			len(st.Pages.Shadowed), queued)
	}
	e.shadowFIFO = append(e.shadowFIFO[:0], st.ShadowFIFO...)
	e.shadowBase = st.ShadowBase

	e.epochMigBytes = st.EpochMigBytes
	e.kernelNSEpoch = st.KernelNSEpoch
	e.kernelFrac = st.KernelFrac
	e.migTokens = st.MigTokens
	e.slowUtilEMA = st.SlowUtilEMA
	e.fastUtilEMA = st.FastUtilEMA
	e.slowLatMult = st.SlowLatMult
	e.fastLatMult = st.FastLatMult

	e.aliasIDs = append(e.aliasIDs[:0], st.AliasIDs...)
	e.aliasW = append(e.aliasW[:0], st.AliasW...)
	e.aliasBuiltAt = st.AliasBuiltAt
	e.aliasWeightDirty = st.AliasWeightDirty
	e.aliasStructural = st.AliasStructural
	e.aliasTable = nil
	if st.HasAlias && len(st.AliasW) > 0 {
		e.aliasTable = rng.NewAlias(e.rPEBS, e.aliasW)
	}

	e.numaTiering = st.NumaTiering
	e.horizon = st.Horizon

	if err := e.restoreMetrics(&st.Metrics); err != nil {
		return 0, err
	}

	// On a swap the recorded policy state belongs to the old policy and is
	// discarded: the new policy keeps the state its Attach just built, as
	// if it had been handed a running system.
	if !swap && e.pol != nil {
		if err := e.pol.RestoreCheckpoint(st.Policy); err != nil {
			return 0, fmt.Errorf("engine: restore policy %s: %w", st.PolicyName, err)
		}
	}

	// Arm the engine tickers exactly like Run does, then let the clock
	// restore drain the fresh arming and rebuild the recorded queue. This
	// must come last: every keyed ticker and binder has to be registered
	// before the recorded events can resolve.
	e.startTickers()
	if swap {
		dropped, err = e.clock.RestoreInto(st.Clock)
		if err != nil {
			return dropped, fmt.Errorf("engine: restore clock: %w", err)
		}
		return dropped, nil
	}
	if err := e.clock.Restore(st.Clock); err != nil {
		return 0, fmt.Errorf("engine: restore clock: %w", err)
	}
	return 0, nil
}

// restorePages reconciles the fresh page table against the snapshot.
// Structure can differ only by huge-page splits: fresh pages missing from
// the snapshot were freed (split) during the original run and retire;
// snapshot IDs beyond the fresh table are the split fragments and are
// created bare (their LRU position, policy counters, and residency are
// overlaid wholesale by the rest of Restore, so none of mapPage's side
// effects apply).
func (e *Engine) restorePages(st *PageTableState) error {
	n := len(st.ID)
	for _, col := range []int{
		len(st.VPN), len(st.PID), len(st.Tier), len(st.Flags), len(st.Size),
		len(st.ProtTS), len(st.LastFault), len(st.DemoteTS), len(st.PromoteTS),
		len(st.ABitTS),
		len(st.Meta), len(st.Meta2), len(st.FaultSeq), len(st.W), len(st.RF),
	} {
		if col != n {
			return fmt.Errorf("engine: restore: page table column length mismatch")
		}
	}
	if st.Len < len(e.pages) {
		return fmt.Errorf("engine: restore: checkpoint page table (%d slots) smaller than fresh build (%d)",
			st.Len, len(e.pages))
	}
	// Every slot past the fresh table is a SplitHuge fragment, and
	// fragments are never freed, so each holds a live page.
	if st.Len-len(e.pages) > n {
		return fmt.Errorf("engine: restore: checkpoint page table (%d slots) has %d slots past the fresh build (%d) but %d live pages",
			st.Len, st.Len-len(e.pages), len(e.pages), n)
	}
	present := make([]bool, st.Len)
	for _, id := range st.ID {
		if id < 0 || id >= int64(st.Len) {
			return fmt.Errorf("engine: restore: page ID %d outside table of %d", id, st.Len)
		}
		if present[id] {
			return fmt.Errorf("engine: restore: duplicate page ID %d", id)
		}
		present[id] = true
	}
	// Pages are created and freed below: no grouping of the old page set
	// survives a restore.
	e.pageGen++
	// Retire fresh pages the snapshot freed (mirrors SplitHuge's retire).
	for id := range e.pages {
		if e.pages[id] != nil && !present[id] {
			pg := e.pages[id]
			pg.Proc.RemovePage(pg)
			e.pages[id] = nil
			e.pageW[id] = 0
		}
	}
	e.reservePages(st.Len - len(e.pages))
	for len(e.pages) < st.Len {
		e.pages = append(e.pages, nil)
		e.pageW = append(e.pageW, 0)
		e.pageRF = append(e.pageRF, 1)
		e.everSlow = append(e.everSlow, false)
		e.everPromoted = append(e.everPromoted, false)
	}
	for i, id := range st.ID {
		pg := e.pages[id]
		ps := e.byPID[st.PID[i]]
		if ps == nil {
			return fmt.Errorf("engine: restore: page %d references unknown PID %d", id, st.PID[i])
		}
		if st.Tier[i] < 0 || st.Tier[i] >= int(mem.NumTiers) {
			return fmt.Errorf("engine: restore: page %d has tier %d", id, st.Tier[i])
		}
		if pg == nil {
			pg = e.newPage()
			*pg = vm.Page{ID: id, VPN: st.VPN[i], Proc: ps.proc, Size: st.Size[i]}
			e.pages[id] = pg
			ps.proc.InsertPage(pg)
		} else if pg.VPN != st.VPN[i] || pg.Proc.PID != st.PID[i] {
			return fmt.Errorf("engine: restore: page %d is (pid %d, vpn %#x) in checkpoint but (pid %d, vpn %#x) in fresh build",
				id, st.PID[i], st.VPN[i], pg.Proc.PID, pg.VPN)
		}
		pg.Tier = mem.TierID(st.Tier[i])
		pg.Flags = vm.PageFlags(st.Flags[i])
		pg.Size = st.Size[i]
		pg.ProtTS = st.ProtTS[i]
		pg.LastFault = st.LastFault[i]
		pg.DemoteTS = st.DemoteTS[i]
		pg.PromoteTS = st.PromoteTS[i]
		pg.ABitTS = st.ABitTS[i]
		pg.Meta = st.Meta[i]
		pg.Meta2 = st.Meta2[i]
		pg.FaultSeq = st.FaultSeq[i]
		e.pageW[id] = st.W[i]
		e.pageRF[id] = st.RF[i]
	}
	for i := range e.everSlow {
		e.everSlow[i] = false
		e.everPromoted[i] = false
	}
	for _, id := range st.EverSlow {
		if id < 0 || id >= int64(len(e.everSlow)) {
			return fmt.Errorf("engine: restore: ever-slow ID %d out of range", id)
		}
		e.everSlow[id] = true
	}
	for _, id := range st.EverPromoted {
		if id < 0 || id >= int64(len(e.everPromoted)) {
			return fmt.Errorf("engine: restore: ever-promoted ID %d out of range", id)
		}
		e.everPromoted[id] = true
	}
	if len(st.Shadowed) != len(st.ShadowTS) {
		return fmt.Errorf("engine: restore: shadowed/shadow_ts column length mismatch")
	}
	for i := range e.shadowed {
		e.shadowed[i] = false
		e.shadowTS[i] = 0
	}
	if len(st.Shadowed) > 0 {
		e.growShadow()
		for i, id := range st.Shadowed {
			if id < 0 || id >= int64(len(e.pages)) || e.pages[id] == nil {
				return fmt.Errorf("engine: restore: shadowed ID %d references no live page", id)
			}
			e.shadowed[id] = true
			e.shadowTS[id] = st.ShadowTS[i]
		}
	}
	return nil
}

// restorePatterns overwrites the pattern of every process registered
// with EnablePatternRestore with its recorded pattern. A fresh Build
// leaves the pattern at its t=0 phase; the snapshot holds the phase the
// live run had reached, so the resumed workload's next tick starts from
// exactly the state the live run had.
func (e *Engine) restorePatterns(recs []PatternRecord) error {
	if len(recs) != len(e.patternRestore) {
		return fmt.Errorf("engine: restore: checkpoint has %d workload patterns, build registered %d",
			len(recs), len(e.patternRestore))
	}
	for i, p := range e.patternRestore {
		rec := recs[i]
		if rec.PID != p.PID {
			return fmt.Errorf("engine: restore: workload pattern %d is pid %d in checkpoint, pid %d in build", i, rec.PID, p.PID)
		}
		if err := p.RestorePattern(rec.W, rec.RF, rec.TotalWeight); err != nil {
			return fmt.Errorf("engine: restore: %w", err)
		}
	}
	return nil
}

func (e *Engine) restoreProcs(recs []ProcRecord) error {
	if len(recs) != len(e.procs) {
		return fmt.Errorf("engine: restore: checkpoint has %d processes, engine has %d", len(recs), len(e.procs))
	}
	for _, rec := range recs {
		ps := e.byPID[rec.PID]
		if ps == nil {
			return fmt.Errorf("engine: restore: unknown PID %d", rec.PID)
		}
		ps.wRead = rec.WRead
		ps.wWrite = rec.WWrite
		ps.wTot = rec.WTot
		ps.wSwap = rec.WSwap
		ps.rate = rec.Rate
		ps.faultOverheadNS = rec.FaultOverheadNS
		ps.epochFaults = rec.EpochFaults
		ps.residentFast = rec.ResidentFast
		ps.residentSlow = rec.ResidentSlow
		ps.residentSwap = rec.ResidentSwap
	}
	return nil
}

func (e *Engine) restoreMetrics(st *MetricsState) error {
	return applyMetricsState(&e.M, st)
}

// Materialize reconstructs a standalone Metrics from its serialized form.
// Resumable sweeps use it to short-circuit cells whose finished metrics
// are already on disk without re-running the simulation.
func (st *MetricsState) Materialize() (*Metrics, error) {
	m := &Metrics{
		Lat:      stats.NewHistogram(),
		LatRead:  stats.NewHistogram(),
		LatWrite: stats.NewHistogram(),
	}
	if err := applyMetricsState(m, st); err != nil {
		return nil, err
	}
	return m, nil
}

func applyMetricsState(m *Metrics, st *MetricsState) error {
	m.Duration = st.Duration
	m.Accesses = st.Accesses
	m.FastAccesses = st.FastAccesses
	m.Reads = st.Reads
	m.Writes = st.Writes
	m.Faults = st.Faults
	m.Promotions = st.Promotions
	m.Demotions = st.Demotions
	m.SwapOuts = st.SwapOuts
	m.SwapIns = st.SwapIns
	m.MigratedBytes = st.MigratedBytes
	m.ContextSwitches = st.ContextSwitches
	m.KernelNS = st.KernelNS
	m.AppNS = st.AppNS
	m.FailedPromotions = st.FailedPromotions
	m.FailedDemotions = st.FailedDemotions
	m.AbortedMigrationNS = st.AbortedMigrationNS
	m.PEBSDropped = st.PEBSDropped
	m.MoveTierErrors = st.MoveTierErrors
	m.RePromotions = st.RePromotions
	m.ThrashDemotions = st.ThrashDemotions
	m.ThrashBytes = st.ThrashBytes
	m.ShadowDemotions = st.ShadowDemotions
	m.ShadowStale = st.ShadowStale
	m.ShadowReclaims = st.ShadowReclaims
	m.NomadAborts = st.NomadAborts
	if err := m.Lat.SetState(st.Lat); err != nil {
		return err
	}
	if err := m.LatRead.SetState(st.LatRead); err != nil {
		return err
	}
	return m.LatWrite.SetState(st.LatWrite)
}
