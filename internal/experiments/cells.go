package experiments

// The one sweep-cell runner: every multi-run experiment except the
// sampler ones (fig2a, fig9, drift) is a list of cells run by runCells
// plus a render function over the cells' records.

import (
	"context"
	"encoding/json"
	"errors"

	"chrono/internal/parallel"
	"chrono/internal/policy"
	"chrono/internal/report"
	"chrono/internal/workload"
)

// Cell is one simulation of a sweep grid.
type Cell struct {
	// Experiment labels the cell, e.g. "pmbench/64GB/rw=50:50".
	Experiment string
	// Policy is the registry name passed to NewPolicy.
	Policy string
	// Workload returns a FRESH workload per call: a workload carries
	// per-run state after Build, so attempts cannot share one.
	Workload func() workload.Workload
	// Param, when set, runs Chrono with one parameter scaled instead of
	// the named policy (the sensitivity sweeps).
	Param *Param
	// Seed overrides RunOpts.Seed when non-zero (the seed sweep).
	Seed uint64

	// keep extracts a record that reads the live engine from the finished
	// run, and restore reads it back from the cell's .done file (see
	// runCells); both are nil for other records.
	keep    func(*Result) any
	restore func(json.RawMessage) error
}

// newPolicy builds the cell's policy instance.
func (c Cell) newPolicy(o RunOpts) (policy.Policy, error) {
	if c.Param != nil {
		return chronoWithParam(*c.Param, o)
	}
	return NewPolicy(c.Policy)
}

// Outcome is what a sweep reports besides its records.
type Outcome struct {
	// Failed is the failure manifest, in grid order: cells that crashed
	// every attempt, stalled, or were drained by a graceful shutdown,
	// each with a resume pointer when a snapshot exists.
	Failed []FailedRun
	// Interrupted reports that a cancelled context drained the sweep
	// before every cell finished. Skipped cells have no record and no
	// Failed entry; rerunning with resume enabled completes them.
	Interrupted bool
}

// Sweep is a finished multi-run experiment: its tables, in which a cell
// that did not finish reads FAILED, and its Outcome.
type Sweep struct {
	Tables []*report.Table
	Outcome
}

// runCells runs every cell through ResilientRun on o.Workers workers and
// returns one record per cell in grid order, nil where the cell did not
// finish. record extracts a cell's record from its finished Result. When
// live is false it sees the compacted Result (metrics, workload, policy
// name), which a short-circuited cell has too. When live is true it runs
// while the engine is still attached, and the record is stored in the
// cell's .done file so a resumed sweep reads it back instead. Only
// configuration errors (an unknown policy, a workload that fails to
// build) abort the sweep.
func runCells[R any](cells []Cell, o RunOpts, live bool, record func(*Result) R) ([]*R, Outcome, error) {
	failed := make([]*FailedRun, len(cells))
	jobs := make([]func() (*R, error), len(cells))
	for i, c := range cells {
		jobs[i] = func() (*R, error) {
			var rec R
			cell := c
			if live {
				cell.keep = func(res *Result) any { rec = record(res); return rec }
				cell.restore = func(raw json.RawMessage) error { return json.Unmarshal(raw, &rec) }
			}
			res, f, err := ResilientRun(cell, o)
			if err != nil || f != nil {
				failed[i] = f
				return nil, err
			}
			res.Compact()
			if !live {
				rec = record(res)
			}
			return &rec, nil
		}
	}
	recs, errs := parallel.MapRecoverCtx(o.ctx(), o.Workers, jobs)
	var out Outcome
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, Outcome{}, err
		}
		// A cell skipped by the drain is not a failure: its record stays
		// nil and the next resume run picks it up.
		out.Interrupted = out.Interrupted || err != nil
		if f := failed[i]; f != nil {
			out.Failed = append(out.Failed, *f)
			out.Interrupted = out.Interrupted || f.Interrupted
		}
	}
	return recs, out, nil
}

// valueRow renders one table row: label, then each value, normalized to
// vals[base] when base >= 0 and that cell finished. A missing cell reads
// FAILED.
func valueRow(label any, vals []*float64, base int) []any {
	den := 1.0
	if base >= 0 && vals[base] != nil {
		den = *vals[base]
	}
	cells := []any{label}
	for _, v := range vals {
		if v == nil {
			cells = append(cells, "FAILED")
			continue
		}
		cells = append(cells, *v/den)
	}
	return cells
}

// baselineIdx locates Linux-NB, the normalization baseline, in policies
// (the first policy when it is absent).
func baselineIdx(policies []string) int {
	for i, p := range policies {
		if p == "Linux-NB" {
			return i
		}
	}
	return 0
}

// throughput is the record of the sweeps that only need throughput.
func throughput(res *Result) float64 { return res.Metrics.Throughput() }
