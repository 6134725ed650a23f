package workload

import (
	"fmt"
	"math"

	"chrono/internal/engine"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// AccessPattern selects pmbench's spatial distribution.
type AccessPattern int

// Patterns used in the evaluation.
const (
	// PatternNormalIH is pmbench's normal_ih: Gaussian over the address
	// space (inverted-hill), producing a dense hot centre.
	PatternNormalIH AccessPattern = iota
	// PatternUniform is pmbench's uniform random pattern (§5.1.3).
	PatternUniform
	// PatternZipf assigns Zipf-ranked popularity to pages in a random
	// permutation of the address space: heavy-tailed hotness with no
	// spatial locality (the adversarial case for region-based profilers).
	PatternZipf
)

// Pmbench is the §5.1 microbenchmark: N concurrent processes, each with a
// private working set, a configurable spatial pattern, stride, read/write
// ratio, and optional per-access delay.
type Pmbench struct {
	// Processes is the concurrency level (50 or 32 in Figure 6).
	Processes int
	// WorkingSetGB is the per-process private working set (5, 8, or 4 GB).
	WorkingSetGB units.GB
	// ReadPct is the read percentage of the R/W ratio (95, 70, 30, 5).
	ReadPct float64
	// Pattern selects the spatial distribution.
	Pattern AccessPattern
	// Stride is the stride step (2 in the paper: every other page).
	Stride int
	// SigmaFrac is the Gaussian stddev as a fraction of the working set
	// (default 0.10, putting ~79% of accesses in the central 25%).
	SigmaFrac float64
	// ZipfS is the Zipf exponent for PatternZipf (default 1.1).
	ZipfS float64
	// HotFrac is the ground-truth hot region width (default 0.25).
	HotFrac float64
	// DelayUnitNS, if non-zero, adds i*DelayUnitNS of per-access stall to
	// the i-th process (pmbench's delay parameter; one unit is 50 cycles
	// ≈ 19 ns at 2.6 GHz).
	DelayUnitNS units.NS
	// ThreadsPerProc is the thread count per process (default 1).
	ThreadsPerProc int
	// Mode selects base or huge page mapping.
	Mode engine.PageSizeMode
	// DriftPeriodS, when non-zero, rotates the Gaussian hot centre by
	// DriftStepFrac of the address space every DriftPeriodS virtual
	// seconds — the shifting-working-set scenario the adaptive tuning is
	// designed for ("adapts to changing workload patterns", §3.2.2).
	DriftPeriodS float64
	// DriftStepFrac is the per-step centre shift (default 0.25).
	DriftStepFrac float64

	// clock is the engine clock under drift: the hot centre is a function
	// of its phase (see centreAt), so ground truth agrees with the pattern
	// after a checkpoint restore.
	clock *simclock.Clock
	// zipfThresh is the per-process ground-truth hot weight cutoff for
	// PatternZipf.
	zipfThresh []float64
}

// Name implements Workload.
func (w *Pmbench) Name() string {
	return fmt.Sprintf("pmbench-%dp-%.0fGB-r%.0f", w.Processes, w.WorkingSetGB, w.ReadPct)
}

// Build implements Workload.
func (w *Pmbench) Build(e *engine.Engine) error {
	if w.Processes <= 0 {
		w.Processes = 1
	}
	if w.WorkingSetGB <= 0 {
		w.WorkingSetGB = 5
	}
	if w.Stride < 1 {
		w.Stride = 1
	}
	if w.SigmaFrac == 0 {
		w.SigmaFrac = 0.10
	}
	if w.HotFrac == 0 {
		w.HotFrac = 0.25
	}
	threads := w.ThreadsPerProc
	if threads <= 0 {
		threads = 1
	}
	rf := w.ReadPct / 100
	r := e.WorkloadRNG()
	// Cap the aggregate at 97% of physical memory (kernel + swap
	// headroom); a fully exhausted node leaves migration nowhere to go.
	wsGB := w.WorkingSetGB
	if maxGB := (e.Config().FastGB + e.Config().SlowGB).Mul(0.97).Div(float64(w.Processes)); wsGB > maxGB {
		wsGB = maxGB
	}
	for i := 0; i < w.Processes; i++ {
		n := GB(e, wsGB)
		p := vm.NewProcess(1000+i, fmt.Sprintf("pmbench-%d", i), n)
		p.DelayNS = w.DelayUnitNS.Mul(float64(i))
		var weights []float64
		switch w.Pattern {
		case PatternUniform:
			weights = make([]float64, n)
			for j := 0; j < int(n); j += w.Stride {
				weights[j] = 1
			}
		case PatternZipf:
			weights = w.zipfWeights(int(n), r)
		default:
			weights = gaussianWeights(int(n), w.SigmaFrac*float64(n), w.Stride)
		}
		start := p.VMAs()[0].Start
		for j, wt := range weights {
			// Small per-page jitter on the read fraction keeps write
			// traffic from being perfectly uniform across pages.
			prf := rf
			if prf > 0 && prf < 1 {
				prf += (r.Float64() - 0.5) * 0.02
				if prf < 0 {
					prf = 0
				} else if prf > 1 {
					prf = 1
				}
			}
			p.SetPattern(start+uint64(j), wt, prf)
		}
		e.AddProcess(p, threads)
	}
	if err := e.MapAll(w.Mode); err != nil {
		return err
	}
	if w.DriftPeriodS > 0 {
		if w.DriftStepFrac == 0 {
			w.DriftStepFrac = 0.25
		}
		w.clock = e.Clock()
		procs := e.Processes()
		for _, p := range procs {
			e.EnablePatternRestore(p)
		}
		e.Clock().EveryKey("workload/pmbench/drift", simclock.FromSeconds(w.DriftPeriodS), func(now simclock.Time) {
			centre := w.centreAt(now)
			for _, p := range procs {
				w.reweight(p, centre, rf)
				e.FlushPattern(p)
			}
		})
	}
	return nil
}

// centreAt returns the hot centre (fraction of the address space) at
// time now. The drift ticker fires at every multiple of the drift period;
// their float additions are replayed one per tick from 0.5, so the centre
// depends on the clock alone.
func (w *Pmbench) centreAt(now simclock.Time) float64 {
	centre := 0.5
	for ticks := now / simclock.FromSeconds(w.DriftPeriodS); ticks > 0; ticks-- {
		centre += w.DriftStepFrac
		for centre >= 1 {
			centre -= 1
		}
	}
	return centre
}

// zipfWeights assigns rank-based Zipf popularity 1/rank^s to the strided
// pages in a seeded random permutation, so hotness has no spatial
// structure. Per-process hot thresholds are recorded for ground truth.
func (w *Pmbench) zipfWeights(n int, r *rng.Source) []float64 {
	if w.ZipfS == 0 {
		w.ZipfS = 1.1
	}
	// Collect the strided (accessed) indices and shuffle them.
	var idx []int
	for j := 0; j < n; j += w.Stride {
		idx = append(idx, j)
	}
	for i := len(idx) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	weights := make([]float64, n)
	for rank, j := range idx {
		weights[j] = math.Pow(float64(rank+1), -w.ZipfS)
	}
	// Ground truth: the top HotFrac of accessed pages by rank.
	cut := int(float64(len(idx)) * w.HotFrac)
	if cut < 1 {
		cut = 1
	}
	thresh := math.Pow(float64(cut), -w.ZipfS)
	w.zipfThresh = append(w.zipfThresh, thresh)
	return weights
}

// reweight re-centres the Gaussian at centre (fraction of the address
// space, wrapping around).
func (w *Pmbench) reweight(p *vm.Process, centre, rf float64) {
	v := p.VMAs()[0]
	n := int(v.Len)
	sigma := w.SigmaFrac * float64(n)
	mu := centre * float64(n)
	for j := 0; j < n; j++ {
		var wt float64
		if w.Stride <= 1 || j%w.Stride == 0 {
			d := float64(j) - mu
			// Wrap-around distance.
			if d > float64(n)/2 {
				d -= float64(n)
			} else if d < -float64(n)/2 {
				d += float64(n)
			}
			d /= sigma
			wt = math.Exp(-0.5 * d * d)
		}
		p.SetPattern(v.Start+uint64(j), wt, rf)
	}
}

// HotPage implements Workload: the HotFrac band around the (possibly
// drifted) hot centre.
func (w *Pmbench) HotPage(p *vm.Process, vpn uint64) bool {
	v := p.VMAs()[0]
	if vpn < v.Start || vpn >= v.End() {
		return false
	}
	i := int(vpn - v.Start)
	if w.Pattern == PatternUniform {
		return false // uniform pattern has no hot region
	}
	if w.Pattern == PatternZipf {
		idx := p.PID - 1000
		if idx < 0 || idx >= len(w.zipfThresh) {
			return false
		}
		return p.Weight(vpn) >= w.zipfThresh[idx]
	}
	if w.Stride > 1 && i%w.Stride != 0 {
		return false
	}
	centre := 0.5
	if w.clock != nil {
		centre = w.centreAt(w.clock.Now())
	}
	n := float64(v.Len)
	d := math.Abs(float64(i) - centre*n)
	if d > n/2 {
		d = n - d // wrap-around
	}
	return d <= w.HotFrac/2*n
}
