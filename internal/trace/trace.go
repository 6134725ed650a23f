// Package trace records and replays tiered-memory simulation runs.
//
// A trace captures two things:
//
//   - the workload side: periodic snapshots of every process's page-weight
//     pattern (so a run can be replayed against a different policy with
//     bit-identical access behaviour), and
//   - the system side: the migration/fault event timeline and placement
//     snapshots, for offline analysis of a finished run.
//
// Traces serialize to a line-oriented JSON format (one record per line)
// so they stream, diff, and compress well, and are readable with standard
// tooling. The replayer implements workload.Workload: a recorded run —
// including its phase changes — can be fed to any policy through the
// ordinary experiment harness.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"chrono/internal/engine"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// RecordKind discriminates trace records.
type RecordKind string

// Record kinds.
const (
	KindHeader   RecordKind = "header"
	KindProcess  RecordKind = "process"
	KindPattern  RecordKind = "pattern"
	KindSnapshot RecordKind = "snapshot"
)

// Header is the first record of every trace.
type Header struct {
	Kind    RecordKind `json:"kind"`
	Version int        `json:"version"`
	// Workload is the generator's Name() for provenance.
	Workload string `json:"workload"`
	// FastGB/SlowGB/PagesPerGB reproduce the machine shape.
	FastGB     units.GB `json:"fast_gb"`
	SlowGB     units.GB `json:"slow_gb"`
	PagesPerGB int64    `json:"pages_per_gb"`
}

// Process declares one address space.
type Process struct {
	Kind    RecordKind `json:"kind"`
	PID     int        `json:"pid"`
	Name    string     `json:"name"`
	Cgroup  int        `json:"cgroup"`
	DelayNS units.NS   `json:"delay_ns"`
	Threads int        `json:"threads"`
	Pages   uint64     `json:"pages"`
}

// Pattern carries one process's page weights at a virtual time. Weights
// are run-length encoded as (count, weight, readFrac) triples over the
// VMA in VPN order — access patterns are typically piecewise-uniform, so
// RLE keeps phase-heavy traces small.
type Pattern struct {
	Kind   RecordKind `json:"kind"`
	AtSec  float64    `json:"at_sec"`
	PID    int        `json:"pid"`
	Counts []uint32   `json:"counts"`
	W      []float64  `json:"w"`
	RF     []float64  `json:"rf"`
}

// Snapshot is a placement/metrics sample for offline analysis.
type Snapshot struct {
	Kind       RecordKind `json:"kind"`
	AtSec      float64    `json:"at_sec"`
	FMAR       float64    `json:"fmar"`
	Promotions int64      `json:"promotions"`
	Demotions  int64      `json:"demotions"`
	Faults     float64    `json:"faults"`
	// DRAMPct maps PID -> DRAM page percentage.
	DRAMPct map[int]float64 `json:"dram_pct"`
}

// Writer streams records to an io.Writer.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// Write emits one record.
func (t *Writer) Write(rec any) error { return t.enc.Encode(rec) }

// Flush drains buffered output.
func (t *Writer) Flush() error { return t.w.Flush() }

// Recorder attaches to an engine and writes a full trace of the run:
// the machine header, process declarations, pattern snapshots every
// PatternEvery, and metric snapshots every SnapshotEvery.
type Recorder struct {
	out *Writer
	// PatternEvery controls pattern capture (default 60 s; patterns are
	// only re-captured when FlushPattern changed them, detected via a
	// cheap checksum).
	PatternEvery simclock.Duration
	// SnapshotEvery controls metric snapshots (default 10 s).
	SnapshotEvery simclock.Duration

	sums map[int]float64 // last pattern checksum per PID
}

// NewRecorder creates a recorder writing to w.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{
		out:           NewWriter(w),
		PatternEvery:  simclock.Minute,
		SnapshotEvery: 10 * simclock.Second,
		sums:          make(map[int]float64),
	}
}

// Attach must be called after the workload built the engine (processes
// mapped) and before Run. workloadName is recorded for provenance.
func (r *Recorder) Attach(e *engine.Engine, workloadName string) error {
	cfg := e.Config()
	if err := r.out.Write(Header{
		Kind: KindHeader, Version: 1, Workload: workloadName,
		FastGB: cfg.FastGB, SlowGB: cfg.SlowGB, PagesPerGB: cfg.PagesPerGB,
	}); err != nil {
		return err
	}
	for _, p := range e.Processes() {
		var total uint64
		for _, v := range p.VMAs() {
			total += v.Len
		}
		if err := r.out.Write(Process{
			Kind: KindProcess, PID: p.PID, Name: p.Name, Cgroup: p.Cgroup,
			DelayNS: p.DelayNS, Threads: 1, Pages: total,
		}); err != nil {
			return err
		}
		if err := r.capturePattern(e, p, 0); err != nil {
			return err
		}
	}
	e.Clock().EveryKey("trace/pattern", r.PatternEvery, func(now simclock.Time) {
		for _, p := range e.Processes() {
			r.capturePattern(e, p, now.Seconds())
		}
	})
	e.Clock().EveryKey("trace/snapshot", r.SnapshotEvery, func(now simclock.Time) {
		r.snapshot(e, now)
	})
	return nil
}

// capturePattern RLE-encodes the process pattern, skipping unchanged ones.
func (r *Recorder) capturePattern(e *engine.Engine, p *vm.Process, atSec float64) error {
	var sum float64
	pat := Pattern{Kind: KindPattern, AtSec: atSec, PID: p.PID}
	var curW, curRF float64
	var curN uint32
	flush := func() {
		if curN > 0 {
			pat.Counts = append(pat.Counts, curN)
			pat.W = append(pat.W, curW)
			pat.RF = append(pat.RF, curRF)
		}
	}
	i := 0
	for _, v := range p.VMAs() {
		for vpn := v.Start; vpn < v.End(); vpn++ {
			w := p.Weight(vpn)
			rf := p.ReadFrac(vpn)
			sum += w*float64(2*i+1) + rf
			i++
			if curN > 0 && w == curW && rf == curRF {
				curN++
				continue
			}
			flush()
			curW, curRF, curN = w, rf, 1
		}
	}
	flush()
	if prev, ok := r.sums[p.PID]; ok && prev == sum {
		return nil // unchanged since last capture
	}
	r.sums[p.PID] = sum
	return r.out.Write(pat)
}

// snapshot writes one metrics record.
func (r *Recorder) snapshot(e *engine.Engine, now simclock.Time) {
	s := Snapshot{
		Kind: KindSnapshot, AtSec: now.Seconds(),
		FMAR:       e.M.FMAR(),
		Promotions: e.M.Promotions,
		Demotions:  e.M.Demotions,
		Faults:     e.M.Faults,
		DRAMPct:    make(map[int]float64),
	}
	for _, p := range e.Processes() {
		s.DRAMPct[p.PID] = e.DRAMPagePercent(p.PID)
	}
	r.out.Write(s)
}

// Flush finishes the trace.
func (r *Recorder) Flush() error { return r.out.Flush() }

// Trace is a fully parsed trace.
type Trace struct {
	Header    Header
	Processes []Process
	Patterns  []Pattern
	Snapshots []Snapshot
}

// Read parses a trace stream.
func Read(rd io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		var probe struct {
			Kind RecordKind `json:"kind"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch probe.Kind {
		case KindHeader:
			if err := json.Unmarshal(raw, &t.Header); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
		case KindProcess:
			var p Process
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			t.Processes = append(t.Processes, p)
		case KindPattern:
			var p Pattern
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			if len(p.W) != len(p.Counts) || len(p.RF) != len(p.Counts) {
				return nil, fmt.Errorf("trace: line %d: pattern has %d counts, %d weights, %d read fractions",
					line, len(p.Counts), len(p.W), len(p.RF))
			}
			t.Patterns = append(t.Patterns, p)
		case KindSnapshot:
			var s Snapshot
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			t.Snapshots = append(t.Snapshots, s)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", line, probe.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.Header.Kind != KindHeader {
		return nil, fmt.Errorf("trace: missing header record")
	}
	return t, nil
}

// Replay implements workload.Workload over a recorded trace: it recreates
// the processes, applies the t=0 patterns, and schedules every later
// pattern record at its recorded time.
type Replay struct {
	T *Trace
	// HotFracOverride optionally marks the top fraction of each process's
	// initial weights as the ground-truth hot set (default 0.25).
	HotFrac float64

	hotThresh map[int]float64
}

// Name implements workload.Workload.
func (r *Replay) Name() string { return "replay:" + r.T.Header.Workload }

// Build implements workload.Workload.
func (r *Replay) Build(e *engine.Engine) error {
	if r.HotFrac == 0 {
		r.HotFrac = 0.25
	}
	r.hotThresh = make(map[int]float64)
	byPID := make(map[int]*vm.Process)
	for _, pr := range r.T.Processes {
		p := vm.NewProcess(pr.PID, pr.Name, pr.Pages)
		p.Cgroup = pr.Cgroup
		p.DelayNS = pr.DelayNS
		threads := pr.Threads
		if threads <= 0 {
			threads = 1
		}
		e.AddProcess(p, threads)
		byPID[pr.PID] = p
	}
	// Initial patterns (AtSec == 0) apply before mapping.
	for _, pat := range r.T.Patterns {
		if pat.AtSec == 0 {
			if p := byPID[pat.PID]; p != nil {
				applyPattern(p, pat)
				r.hotThresh[pat.PID] = hotThreshold(p, r.HotFrac)
			}
		}
	}
	if err := e.MapAll(engine.BasePages); err != nil {
		return err
	}
	// Phase changes replay at their recorded times, as keyed one-shots
	// whose payload is the record's index in T.Patterns; checkpoints carry
	// the patterns they leave.
	for _, pr := range r.T.Processes {
		e.EnablePatternRestore(byPID[pr.PID])
	}
	phase := func(at simclock.Time, i int64) {
		e.Clock().AtKey(at, phaseKey, i, 0, func(now simclock.Time) {
			pat := r.T.Patterns[i]
			if p := byPID[pat.PID]; p != nil {
				applyPattern(p, pat)
				e.FlushPattern(p)
			}
		})
	}
	e.Clock().BindKey(phaseKey, func(rec simclock.EventRecord) {
		// An index outside this trace schedules nothing, which fails the
		// restore instead of the run.
		if rec.Arg >= 0 && rec.Arg < int64(len(r.T.Patterns)) {
			phase(rec.At, rec.Arg)
		}
	})
	for i, pat := range r.T.Patterns {
		if pat.AtSec != 0 {
			phase(simclock.FromSeconds(pat.AtSec), int64(i))
		}
	}
	return nil
}

// phaseKey is the checkpoint key of a replay's pending phase changes.
const phaseKey = "trace/phase"

// HotPage implements workload.Workload: pages whose initial weight is in
// the top HotFrac of the process.
func (r *Replay) HotPage(p *vm.Process, vpn uint64) bool {
	return p.Weight(vpn) >= r.hotThresh[p.PID] && r.hotThresh[p.PID] > 0
}

func applyPattern(p *vm.Process, pat Pattern) {
	vmas := p.VMAs()
	vi := 0
	vpn := vmas[0].Start
	advance := func() {
		vpn++
		if vpn >= vmas[vi].End() && vi+1 < len(vmas) {
			vi++
			vpn = vmas[vi].Start
		}
	}
	for seg := range pat.Counts {
		for c := uint32(0); c < pat.Counts[seg]; c++ {
			if vi >= len(vmas) || vpn >= vmas[vi].End() {
				return
			}
			p.SetPattern(vpn, pat.W[seg], pat.RF[seg])
			advance()
		}
	}
}

// hotThreshold returns the weight cutting off the top frac of weighted
// pages (simple nth-element by sampling all weights).
func hotThreshold(p *vm.Process, frac float64) float64 {
	var ws []float64
	for _, v := range p.VMAs() {
		for vpn := v.Start; vpn < v.End(); vpn++ {
			if w := p.Weight(vpn); w > 0 {
				ws = append(ws, w)
			}
		}
	}
	if len(ws) == 0 {
		return 0
	}
	sort.Float64s(ws)
	i := int(float64(len(ws)) * (1 - frac))
	if i >= len(ws) {
		i = len(ws) - 1
	}
	return ws[i]
}
