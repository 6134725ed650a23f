package engine_test

// The dynamic-workload axis of the checkpoint fence (the policy axis is
// TestCheckpointResumeBitIdentical). Workloads that rewrite their access
// pattern mid-run — pmbench drift, graph500 rounds, trace replay phases —
// must resume from a mid-run snapshot to the state of a run that never
// stopped: engine state, pattern arrays and the workload's ground truth.
// It lives in an external test package because workload imports engine.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/faultinject"
	"chrono/internal/policy"
	"chrono/internal/policy/hemem"
	"chrono/internal/policy/linuxnb"
	"chrono/internal/policy/memtis"
	"chrono/internal/policy/multiclock"
	"chrono/internal/simclock"
	"chrono/internal/trace"
	"chrono/internal/workload"
)

// dynCase is one dynamic workload under one policy. Each constructor
// returns a fresh instance, as a rebuild after a crash would.
type dynCase struct {
	name     string
	workload func() workload.Workload
	policy   func() policy.Policy
}

var dynCases = []dynCase{
	{
		name: "pmbench-drift-base",
		workload: func() workload.Workload {
			return &workload.Pmbench{Processes: 2, WorkingSetGB: 3, ReadPct: 70, Stride: 2, DriftPeriodS: 10}
		},
		policy: func() policy.Policy { return linuxnb.New() },
	},
	{
		name: "pmbench-drift-huge",
		workload: func() workload.Workload {
			return &workload.Pmbench{Processes: 2, WorkingSetGB: 3, ReadPct: 70, DriftPeriodS: 10,
				Mode: engine.HugePages}
		},
		policy: func() policy.Policy { return hemem.New() },
	},
	{
		// Memtis splits huge pages, so the restore reconciles the page
		// table while the rounds rewrite the pattern underneath it.
		name: "graph500-huge",
		workload: func() workload.Workload {
			return &workload.Graph500{TotalGB: 6, Processes: 2, RoundSeconds: 10, Mode: engine.HugePages}
		},
		policy: func() policy.Policy { return memtis.New() },
	},
	{
		name:     "trace-replay",
		workload: func() workload.Workload { return &trace.Replay{T: phasedTrace()} },
		policy:   func() policy.Policy { return multiclock.New() },
	},
}

// phasedTrace is a one-process trace whose hot band moves at each phase.
// Two phases share a timestamp, so restored one-shots must keep their
// FIFO order, and phases remain pending past the snapshot point.
func phasedTrace() *trace.Trace {
	const pages = 1500
	tr := &trace.Trace{
		Header:    trace.Header{Kind: trace.KindHeader, Version: 1, Workload: "phased"},
		Processes: []trace.Process{{Kind: trace.KindProcess, PID: 1, Name: "phased", Threads: 2, Pages: pages}},
	}
	for i, at := range []float64{0, 12, 31, 31, 44} {
		lo := uint32(i * 250)
		tr.Patterns = append(tr.Patterns, trace.Pattern{
			Kind: trace.KindPattern, AtSec: at, PID: 1,
			Counts: []uint32{lo, 300, pages - lo - 300},
			W:      []float64{1, 40 + float64(i), 1},
			RF:     []float64{0.7, 0.9, 0.7},
		})
	}
	return tr
}

// buildDyn builds a dynamic-workload case. shards sets the deprecated
// Config.Shards, which the engine ignores.
func buildDyn(t *testing.T, c dynCase, plan faultinject.Plan, shards int) (*engine.Engine, workload.Workload) {
	t.Helper()
	e := engine.New(engine.Config{Seed: 7, FastGB: 2, SlowGB: 6, Faults: plan, Shards: shards})
	w := c.workload()
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	e.AttachPolicy(c.policy())
	return e, w
}

// groundTruth is the workload's hot flag for every page, which a
// drifting workload derives from its clock phase.
func groundTruth(e *engine.Engine, w workload.Workload) []bool {
	var hot []bool
	for _, p := range e.Processes() {
		for _, v := range p.VMAs() {
			for vpn := v.Start; vpn < v.End(); vpn++ {
				hot = append(hot, w.HotPage(p, vpn))
			}
		}
	}
	return hot
}

// dynEndState marshals the engine's full end-of-run state plus the
// workload's ground truth.
func dynEndState(t *testing.T, e *engine.Engine, w workload.Workload) []byte {
	t.Helper()
	st, err := e.Snapshot()
	if err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	raw, err := json.Marshal(struct {
		State *engine.EngineState `json:"state"`
		Hot   []bool              `json:"hot"`
	}{st, groundTruth(e, w)})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestCheckpointResumeBitIdenticalWorkloads(t *testing.T) {
	const (
		dur = 60 * simclock.Second
		mid = 30 * simclock.Second
	)
	plans := map[string]faultinject.Plan{
		"clean":  {},
		"faulty": faultinject.Aggressive(),
	}
	for _, c := range dynCases {
		for planName, plan := range plans {
			for _, shards := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", c.name, planName, shards), func(t *testing.T) {
					ref, rw := buildDyn(t, c, plan, shards)
					ref.Run(dur)
					want := dynEndState(t, ref, rw)

					victim, vw := buildDyn(t, c, plan, shards)
					var snap *engine.EngineState
					var snapHot []bool
					victim.Clock().SetAfterStep(func() {
						if snap == nil && victim.Clock().Now() >= mid {
							s, err := victim.Snapshot()
							if err != nil {
								t.Fatalf("snapshot: %v", err)
							}
							snap = s
							snapHot = groundTruth(victim, vw)
						}
					})
					victim.Run(dur)
					if snap == nil {
						t.Fatal("snapshot hook never fired")
					}
					if len(snap.Patterns) == 0 {
						t.Fatal("snapshot carries no workload pattern")
					}
					if got := dynEndState(t, victim, vw); !bytes.Equal(got, want) {
						t.Fatal("snapshotting perturbed the run")
					}
					blob, err := json.Marshal(snap)
					if err != nil {
						t.Fatal(err)
					}

					var loaded engine.EngineState
					if err := json.Unmarshal(blob, &loaded); err != nil {
						t.Fatal(err)
					}
					resumed, w := buildDyn(t, c, plan, shards)
					if err := resumed.Restore(&loaded); err != nil {
						t.Fatalf("restore: %v", err)
					}
					again, err := resumed.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if got, _ := json.Marshal(again); !bytes.Equal(got, blob) {
						t.Fatal("restored state differs from the snapshot")
					}
					if got := groundTruth(resumed, w); fmt.Sprint(got) != fmt.Sprint(snapHot) {
						t.Fatal("restored ground truth differs from the snapshot's")
					}
					resumed.ResumeRun()
					if got := dynEndState(t, resumed, w); !bytes.Equal(got, want) {
						t.Fatal("resumed run diverged from the uninterrupted run")
					}
				})
			}
		}
	}
}
