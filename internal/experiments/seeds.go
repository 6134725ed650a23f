package experiments

import (
	"fmt"

	"chrono/internal/report"
	"chrono/internal/stats"
)

// seedRun is one (seed, policy) cell's record. Its fields are exported
// because the F1 score reads the live engine, so the record is stored
// with its cell.
type seedRun struct {
	Thr, FMAR, F1 float64
}

// RunSeedStability re-runs the headline comparison across five seeds and
// reports mean ± stddev of the Chrono/Linux-NB speedup, FMARs, and F1 —
// the robustness check a reproduction should ship with. A seed whose
// Linux-NB or Chrono cell did not finish is left out of the statistics.
func RunSeedStability(o RunOpts) (*Sweep, error) {
	seeds := []uint64{1, 2, 3, 5, 8}
	var cells []Cell
	for _, seed := range seeds {
		for _, pol := range []string{"Linux-NB", "Chrono"} {
			c := headlineCell("seeds", pol)
			c.Seed = seed
			cells = append(cells, c)
		}
	}
	runs, out, err := runCells(cells, o, true, func(res *Result) seedRun {
		r := seedRun{Thr: res.Metrics.Throughput(), FMAR: res.Metrics.FMAR() * 100}
		if res.Policy == "Chrono" {
			_, r.F1, _ = Score(res)
		}
		return r
	})
	if err != nil {
		return nil, err
	}
	var speedups, nbFMAR, chFMAR, chF1 []float64
	for si := range seeds {
		nb, ch := runs[si*2], runs[si*2+1]
		if nb == nil || ch == nil {
			continue
		}
		speedups = append(speedups, ch.Thr/nb.Thr)
		nbFMAR = append(nbFMAR, nb.FMAR)
		chFMAR = append(chFMAR, ch.FMAR)
		chF1 = append(chF1, ch.F1)
	}
	t := report.NewTable(
		fmt.Sprintf("Seed stability: headline workload across %d seeds", len(seeds)),
		"Metric", "Mean", "Stddev", "Min", "Max")
	add := func(name string, xs []float64) {
		t.AddRow(name, stats.Mean(xs), stats.Stddev(xs),
			stats.Quantile(xs, 0), stats.Quantile(xs, 1))
	}
	add("Chrono / Linux-NB speedup", speedups)
	add("Linux-NB FMAR (%)", nbFMAR)
	add("Chrono FMAR (%)", chFMAR)
	add("Chrono F1", chF1)
	t.Note = "the paper's single-testbed numbers correspond to one seed; stability across seeds bounds the simulator's run-to-run noise"
	if n := len(seeds) - len(speedups); n > 0 {
		t.Note += fmt.Sprintf("; %d seed(s) FAILED and are left out", n)
	}
	return &Sweep{Tables: []*report.Table{t}, Outcome: out}, nil
}
