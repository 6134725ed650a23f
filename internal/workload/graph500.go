package workload

import (
	"fmt"
	"math"
	"sort"

	"chrono/internal/engine"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// Graph500 models the §5.2 macrobenchmark: BFS and SSSP over a weighted
// undirected graph from the Graph500 scalable (Kronecker) generator.
//
// Memory layout follows the reference implementation: a vertex array (CSR
// offsets, frontier bitmaps) followed by the edge array. During a BFS, a
// vertex's adjacency list is read when the vertex enters the frontier; over
// many BFS roots the expected access frequency of an edge-array page is
// proportional to the combined degree of the vertices stored on it. The
// Kronecker degree distribution is heavy-tailed but, as the paper notes,
// "the hotter items and the colder items have mild access frequency
// difference" — reproduced here by the log-degree weighting below.
//
// Each BFS round (one root) re-randomizes frontier-locality jitter on top
// of the degree-driven base weights, giving the policies a drifting target.
type Graph500 struct {
	// TotalGB is the aggregate working set across processes (128..256).
	TotalGB units.GB
	// Processes splits the graph work (default 8, the multi-process run).
	Processes int
	// Mode selects base or huge pages (Figure 11a compares both).
	Mode engine.PageSizeMode
	// RoundSeconds is the virtual time per BFS root (default 20 s).
	RoundSeconds float64
	// EdgeFactor is edges per vertex (Graph500 default 16).
	EdgeFactor int
	// ReadPct of accesses that are loads (BFS is read-dominated; SSSP
	// relaxations write). Default 80.
	ReadPct float64
	// WorkAccesses is the nominal total accesses constituting the
	// benchmark's fixed work, used to convert measured throughput into
	// the execution-time metric of Figure 11a. Default 40e9.
	WorkAccesses float64

	baseWeights [][]float64 // per process: degree-driven weights
	hotThresh   []float64   // per process: weight threshold of top 25%
}

// Name implements Workload.
func (w *Graph500) Name() string { return fmt.Sprintf("graph500-%.0fGB", w.TotalGB) }

// Build implements Workload.
func (w *Graph500) Build(e *engine.Engine) error {
	if w.TotalGB <= 0 {
		w.TotalGB = 256
	}
	if w.Processes <= 0 {
		w.Processes = 8
	}
	if w.RoundSeconds <= 0 {
		w.RoundSeconds = 20
	}
	if w.EdgeFactor <= 0 {
		w.EdgeFactor = 16
	}
	if w.ReadPct == 0 {
		w.ReadPct = 80
	}
	if w.WorkAccesses == 0 {
		w.WorkAccesses = 40e9
	}
	r := e.WorkloadRNG()
	// Cap the aggregate at 97% of physical memory: the testbed keeps the
	// remainder for the kernel and swap headroom, and a fully exhausted
	// node would leave the migration path nowhere to demote to.
	totalGB := w.TotalGB
	if maxGB := (e.Config().FastGB + e.Config().SlowGB).Mul(0.97); totalGB > maxGB {
		totalGB = maxGB
	}
	perProc := GB(e, totalGB.Div(float64(w.Processes)))
	if perProc < 1 {
		return fmt.Errorf("graph500: %g GB over %d processes is under one page each", float64(totalGB), w.Processes)
	}
	w.baseWeights = make([][]float64, w.Processes)
	w.hotThresh = make([]float64, w.Processes)
	rf := w.ReadPct / 100

	for i := 0; i < w.Processes; i++ {
		n := int(perProc)
		p := vm.NewProcess(2000+i, fmt.Sprintf("graph500-%d", i), perProc)

		// Vertex region: first ~1/(1+EdgeFactor) of memory; hot (offsets,
		// frontier bitmaps touched every round).
		vtxPages := n / (1 + w.EdgeFactor)
		if vtxPages < 1 {
			vtxPages = 1
		}

		// Edge region: weight from a Kronecker-like power-law degree
		// sequence, compressed to log scale (mild skew).
		weights := make([]float64, n)
		for j := 0; j < vtxPages; j++ {
			weights[j] = 8 // vertex metadata: uniformly hot
		}
		for j := vtxPages; j < n; j++ {
			// Degree of the vertices on this page: Pareto tail. Edge-page
			// access frequency follows sqrt(degree): high-degree hubs are
			// re-read by many frontiers, but the per-BFS visit count
			// compresses the raw degree skew ("mild access frequency
			// difference", §5.2).
			u := r.Float64()
			deg := math.Pow(1-u, -0.7)
			weights[j] = math.Pow(deg, 0.8)
		}
		w.baseWeights[i] = weights
		w.hotThresh[i] = topQuantile(weights[vtxPages:], 0.25)

		start := p.VMAs()[0].Start
		for j, wt := range weights {
			p.SetPattern(start+uint64(j), wt, rf)
		}
		e.AddProcess(p, 2)
	}
	if err := e.MapAll(w.Mode); err != nil {
		return err
	}

	// BFS rounds: jitter the edge-region weights around their base values
	// as frontiers sweep different graph regions. The jitter comes from the
	// workload RNG, so the pattern a round leaves is history: checkpoints
	// carry it verbatim.
	round := simclock.FromSeconds(w.RoundSeconds)
	procs := e.Processes()
	for _, p := range procs {
		e.EnablePatternRestore(p)
	}
	e.Clock().EveryKey("workload/graph500/round", round, func(now simclock.Time) {
		for i, p := range procs {
			base := w.baseWeights[i]
			start := p.VMAs()[0].Start
			vtxPages := len(base) / (1 + w.EdgeFactor)
			for j := vtxPages; j < len(base); j++ {
				// Frontier locality perturbs page heat between roots,
				// but the degree ranking stays the dominant signal.
				jit := 0.85 + 0.3*r.Float64() // ×[0.85, 1.15)
				p.SetPattern(start+uint64(j), base[j]*jit, rf)
			}
			e.FlushPattern(p)
		}
	})
	return nil
}

// topQuantile returns the weight threshold above which the top frac of
// values lie.
func topQuantile(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	i := int(float64(len(cp)) * (1 - frac))
	if i >= len(cp) {
		i = len(cp) - 1
	}
	return cp[i]
}

// HotPage implements Workload: vertex pages plus the top-25% edge pages by
// base degree weight.
func (w *Graph500) HotPage(p *vm.Process, vpn uint64) bool {
	i := p.PID - 2000
	if i < 0 || i >= len(w.baseWeights) {
		return false
	}
	v := p.VMAs()[0]
	if vpn < v.Start || vpn >= v.End() {
		return false
	}
	j := int(vpn - v.Start)
	base := w.baseWeights[i]
	vtxPages := len(base) / (1 + w.EdgeFactor)
	if j < vtxPages {
		return true
	}
	return base[j] >= w.hotThresh[i]
}

// ExecutionTime converts a finished run's metrics into the Figure 11a
// execution-time metric: the virtual time the fixed work would take at the
// measured average throughput.
func (w *Graph500) ExecutionTime(m *engine.Metrics) float64 {
	thr := m.Throughput() * 1e6 // accesses/s
	if thr == 0 {
		return math.Inf(1)
	}
	return w.WorkAccesses / thr
}
