package engine

// The checkpoint fence: a run that is snapshotted mid-flight, rebuilt
// from scratch, restored, and resumed must end in *bit-identical* state
// to the run that never stopped — metrics, histograms, page table, node
// accounting, and the policy's own counters. Any field the snapshot
// misses, any RNG draw the restore path adds or drops, and any event
// reordering shows up here as a byte diff.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chrono/internal/checkpoint"
	"chrono/internal/core"
	"chrono/internal/faultinject"
	"chrono/internal/policy"
	"chrono/internal/policy/autotiering"
	"chrono/internal/policy/flexmem"
	"chrono/internal/policy/hemem"
	"chrono/internal/policy/linuxnb"
	"chrono/internal/policy/memtis"
	"chrono/internal/policy/multiclock"
	"chrono/internal/policy/telescope"
	"chrono/internal/policy/tpp"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// buildCkptEngine constructs the fence scenario: one process with a
// skewed pattern whose hot tail starts in the slow tier, so every policy
// has promotion work to do across the snapshot point. shards sets the
// deprecated Config.Shards, which the engine ignores: a config that still
// carries it must not change a byte.
func buildCkptEngine(t *testing.T, pol policy.Policy, mode PageSizeMode, faults faultinject.Plan, shards int) *Engine {
	t.Helper()
	e := New(Config{Seed: 7, FastGB: 4, SlowGB: 12, Faults: faults, Shards: shards})
	p := vm.NewProcess(1, "ckpt", 3000)
	start := p.VMAs()[0].Start
	for i := uint64(0); i < 3000; i++ {
		w := 1.0
		if i >= 2500 { // hot tail lands slow under fill-fast-first mapping
			w = 60
		}
		p.SetPattern(start+i, w, 0.7)
	}
	e.AddProcess(p, 4)
	if err := e.MapAll(mode); err != nil {
		t.Fatal(err)
	}
	e.AttachPolicy(pol)
	return e
}

// finalState marshals everything the fence compares: the engine's own
// serializable state at end of run plus the policy's checkpoint state.
func finalState(t *testing.T, e *Engine) []byte {
	t.Helper()
	st := struct {
		Metrics MetricsState   `json:"metrics"`
		Pages   PageTableState `json:"pages"`
		Procs   []ProcRecord   `json:"procs"`
		Node    any            `json:"node"`
		Policy  any            `json:"policy"`
		Now     simclock.Time  `json:"now"`
	}{
		Metrics: e.metricsState(),
		Pages:   e.pageTableState(),
		Node:    e.node.State(),
		Now:     e.clock.Now(),
	}
	for _, ps := range e.procs {
		st.Procs = append(st.Procs, ProcRecord{
			PID: ps.proc.PID, WRead: ps.wRead, WWrite: ps.wWrite,
			WTot: ps.wTot, WSwap: ps.wSwap, Rate: ps.rate,
			FaultOverheadNS: ps.faultOverheadNS, EpochFaults: ps.epochFaults,
			ResidentFast: ps.residentFast, ResidentSlow: ps.residentSlow,
			ResidentSwap: ps.residentSwap,
		})
	}
	pst, err := e.pol.CheckpointState()
	if err != nil {
		t.Fatalf("final policy state: %v", err)
	}
	st.Policy = pst
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fencePolicies is every policy the fence covers: the nine evaluated
// systems plus Nomad, and the guard-wrapped variants of the adversarial
// sweep.
var fencePolicies = []string{
	"Linux-NB", "AutoTiering", "Multi-Clock", "TPP", "Memtis", "HeMem", "FlexMem", "Telescope", "Chrono",
	"Nomad", "TPP+guard", "Memtis+guard", "FlexMem+guard", "Chrono+guard", "Nomad+guard",
}

func newFencePolicy(t *testing.T, name string) (policy.Policy, PageSizeMode) {
	t.Helper()
	switch name {
	case "Linux-NB":
		return linuxnb.New(), BasePages
	case "AutoTiering":
		return autotiering.New(), BasePages
	case "Multi-Clock":
		return multiclock.New(), BasePages
	case "HeMem":
		return hemem.New(), HugePages
	case "Telescope":
		return telescope.New(), BasePages
	case "TPP":
		return tpp.New(), BasePages
	case "Memtis":
		// Huge pages exercise the SplitHuge page-table reconciliation.
		return memtis.New(), HugePages
	case "FlexMem":
		return flexmem.New(), HugePages
	case "Chrono":
		return core.New(core.Options{}), BasePages
	case "Nomad":
		return policy.NewNomad(), BasePages
	case "TPP+guard":
		// The guard wrapper serializes its detector columns alongside the
		// inner policy's state.
		return policy.WithThrashGuard(tpp.New(), policy.ThrashConfig{}), BasePages
	case "Memtis+guard":
		// Guarded huge-page inner: SplitHuge reconciliation under the wrapper.
		return policy.WithThrashGuard(memtis.New(), policy.ThrashConfig{}), HugePages
	case "FlexMem+guard":
		return policy.WithThrashGuard(flexmem.New(), policy.ThrashConfig{}), HugePages
	case "Chrono+guard":
		return policy.WithThrashGuard(core.New(core.Options{}), policy.ThrashConfig{}), BasePages
	case "Nomad+guard":
		// The only variant whose guard gates PromoteShadowed.
		return policy.WithThrashGuard(policy.NewNomad(), policy.ThrashConfig{}), BasePages
	}
	t.Fatalf("unknown fence policy %s", name)
	return nil, BasePages
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	const (
		dur = 60 * simclock.Second
		mid = 30 * simclock.Second
	)
	plans := map[string]faultinject.Plan{
		"clean":  {},
		"faulty": faultinject.Aggressive(),
	}
	for _, polName := range fencePolicies {
		for planName, plan := range plans {
			for _, shards := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", polName, planName, shards), func(t *testing.T) {
					// Reference: run straight through.
					pol, mode := newFencePolicy(t, polName)
					ref := buildCkptEngine(t, pol, mode, plan, shards)
					ref.Run(dur)
					want := finalState(t, ref)

					// Interrupted: snapshot at the first event past mid, keep
					// running (the snapshot must not perturb the run), then
					// restore the snapshot into a fresh build and resume.
					pol2, _ := newFencePolicy(t, polName)
					victim := buildCkptEngine(t, pol2, mode, plan, shards)
					var snap *EngineState
					victim.Clock().SetAfterStep(func() {
						if snap == nil && victim.Clock().Now() >= mid {
							s, err := victim.Snapshot()
							if err != nil {
								t.Fatalf("snapshot: %v", err)
							}
							snap = s
						}
					})
					victim.Run(dur)
					if snap == nil {
						t.Fatal("snapshot hook never fired")
					}
					if got := finalState(t, victim); !bytes.Equal(got, want) {
						t.Fatalf("snapshotting perturbed the run (%s)", diffHint(got, want))
					}

					// The snapshot must round-trip through bytes, like a real
					// checkpoint file does.
					blob, err := json.Marshal(snap)
					if err != nil {
						t.Fatal(err)
					}
					var loaded EngineState
					if err := json.Unmarshal(blob, &loaded); err != nil {
						t.Fatal(err)
					}

					pol3, _ := newFencePolicy(t, polName)
					resumed := buildCkptEngine(t, pol3, mode, plan, shards)
					if err := resumed.Restore(&loaded); err != nil {
						t.Fatalf("restore: %v", err)
					}
					resumed.ResumeRun()
					if got := finalState(t, resumed); !bytes.Equal(got, want) {
						t.Fatalf("resumed run diverged (%s)", diffHint(got, want))
					}
				})
			}
		}
	}
}

// diffHint locates the first differing byte for a readable failure.
func diffHint(got, want []byte) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			hi := i + 60
			g, w := hi, hi
			if g > len(got) {
				g = len(got)
			}
			if w > len(want) {
				w = len(want)
			}
			return "first diff at byte " + itoa(i) + ": got ..." + string(got[lo:g]) + "... want ..." + string(want[lo:w]) + "..."
		}
	}
	return "lengths differ: " + itoa(len(got)) + " vs " + itoa(len(want))
}

func itoa(i int) string {
	return string(json.RawMessage(jsonInt(i)))
}

func jsonInt(i int) []byte {
	b, _ := json.Marshal(i)
	return b
}

// TestRestoreRejectsMismatch: a checkpoint only restores into an engine
// built the same way — different policy or a changed fault plan is a
// clear error, not silent divergence.
func TestRestoreRejectsMismatch(t *testing.T) {
	pol, mode := newFencePolicy(t, "TPP")
	e := buildCkptEngine(t, pol, mode, faultinject.Plan{}, 1)
	var snap *EngineState
	e.Clock().SetAfterStep(func() {
		if snap == nil && e.Clock().Now() >= 10*simclock.Second {
			s, err := e.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			snap = s
		}
	})
	e.Run(20 * simclock.Second)
	if snap == nil {
		t.Fatal("no snapshot")
	}

	wrongPol, wrongMode := newFencePolicy(t, "Memtis")
	other := buildCkptEngine(t, wrongPol, wrongMode, faultinject.Plan{}, 1)
	if err := other.Restore(snap); err == nil {
		t.Fatal("restore into a different policy succeeded")
	}

	pol2, _ := newFencePolicy(t, "TPP")
	faulty := buildCkptEngine(t, pol2, mode, faultinject.Aggressive(), 1)
	if err := faulty.Restore(snap); err == nil {
		t.Fatal("restore into a different fault plan succeeded")
	}
}

// snapshotSHA256 pins the checkpoint bytes of the fence scenario under
// Chrono: the first safe point at or past 30 virtual seconds that holds
// both materialized fault timers and deferred Protects (32 s). A change
// to the snapshot's fields, their encoding (packed number columns since
// checkpoint version 3) or the canonical order of the pending-fault lists
// fails here, and so would the restore of .ckpt files and chronod run
// records written by older builds.
const snapshotSHA256 = "05377b079555f9650f501c806052c5fdaa6edad7067dc42f4b87dd998d2268cc"

func TestSnapshotBytesPinned(t *testing.T) {
	pol, mode := newFencePolicy(t, "Chrono")
	e := buildCkptEngine(t, pol, mode, faultinject.Plan{}, 1)
	var snap *EngineState
	e.Clock().SetAfterStep(func() {
		if snap != nil || e.Clock().Now() < 30*simclock.Second {
			return
		}
		s, err := e.Snapshot()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if len(s.PendingFaults) > 0 && len(s.PendingProts) > 0 {
			snap = s
		}
	})
	e.Run(60 * simclock.Second)
	if snap == nil {
		t.Fatal("no safe point past 30 s held both pending faults and deferred Protects")
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != snapshotSHA256 {
		t.Errorf("snapshot at %v hashes to %s, want %s", snap.Clock.Now, got, snapshotSHA256)
	}
}

// TestLoadVersion2File loads testdata/chrono-v2.ckpt, the
// TestSnapshotBytesPinned snapshot as a version-2 checkpoint.Save wrote
// it, with every number column a JSON array, and testdata/chrono-v3.ckpt,
// the same state as a version-3 Save wrote it, with every column a
// packed token. Load still reads both, so chronod records and snapshots
// and durable sweep records written before the section survive an
// upgrade. Saving the loaded state again writes the current version,
// which must load back to the same EngineState, and restoring it must
// resume to the uninterrupted run's final state.
func TestLoadVersion2File(t *testing.T) {
	pol, mode := newFencePolicy(t, "Chrono")
	ref := buildCkptEngine(t, pol, mode, faultinject.Plan{}, 1)
	ref.Run(60 * simclock.Second)
	want := finalState(t, ref)

	for _, version := range []int{2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			path := fmt.Sprintf("testdata/chrono-v%d.ckpt", version)
			if head := fmt.Sprintf(`{"magic":%q,"version":%d,`, checkpoint.Magic, version); !fileStartsWith(t, path, head) {
				t.Fatalf("%s does not start with %s", path, head)
			}
			var st EngineState
			if err := checkpoint.Load(path, &st); err != nil {
				t.Fatal(err)
			}
			again := filepath.Join(t.TempDir(), "again.ckpt")
			if err := checkpoint.Save(again, &st); err != nil {
				t.Fatal(err)
			}
			if head := fmt.Sprintf(`{"magic":%q,"version":%d,`, checkpoint.Magic, checkpoint.Version); !fileStartsWith(t, again, head) {
				t.Fatalf("re-saved checkpoint does not start with %s", head)
			}
			var back EngineState
			if err := checkpoint.Load(again, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, st) {
				t.Fatalf("the version-%d re-save loads to a different EngineState than the version-%d file", checkpoint.Version, version)
			}

			pol2, _ := newFencePolicy(t, "Chrono")
			resumed := buildCkptEngine(t, pol2, mode, faultinject.Plan{}, 1)
			if err := resumed.Restore(&st); err != nil {
				t.Fatalf("restore: %v", err)
			}
			resumed.ResumeRun()
			if got := finalState(t, resumed); !bytes.Equal(got, want) {
				t.Fatalf("run resumed from %s diverged (%s)", path, diffHint(got, want))
			}
		})
	}
}

// fileStartsWith reports whether the file at path starts with head.
func fileStartsWith(t *testing.T, path, head string) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.HasPrefix(data, []byte(head))
}

// TestRestoreRejectsHugePageTable: a page-table length far past what
// the live pages can fill is an error, not an allocation of that many
// slots.
func TestRestoreRejectsHugePageTable(t *testing.T) {
	pol, mode := newFencePolicy(t, "TPP")
	e := buildCkptEngine(t, pol, mode, faultinject.Plan{}, 1)
	e.Run(simclock.Second)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Pages.Len = 1 << 50
	pol2, _ := newFencePolicy(t, "TPP")
	if err := buildCkptEngine(t, pol2, mode, faultinject.Plan{}, 1).Restore(snap); err == nil {
		t.Fatal("restore of a 1<<50-slot page table succeeded")
	}
}

// TestSaveRefusesNaNWeight: a NaN in a float column fails the save, as
// encoding/json refuses to write one.
func TestSaveRefusesNaNWeight(t *testing.T) {
	pol, mode := newFencePolicy(t, "TPP")
	e := buildCkptEngine(t, pol, mode, faultinject.Plan{}, 1)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Pages.W[0] = math.NaN()
	if err := checkpoint.Save(filepath.Join(t.TempDir(), "nan.ckpt"), snap); err == nil {
		t.Fatal("Save of a NaN page weight succeeded")
	}
}
