package policytest_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"chrono/internal/experiments"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
)

// pinned are the policies whose checkpoint bytes are pinned under
// testdata/checkpoint: the nine baselines, Chrono with DCSC and
// semi-auto tuning, and the thrash guard around TPP (null detector
// columns at 30 s) and around FlexMem (every detector column populated).
var pinned = []string{
	"Linux-NB", "AutoTiering", "Multi-Clock", "TPP", "Telescope",
	"HeMem", "Memtis", "FlexMem", "Nomad",
	"Chrono", "Chrono-basic", "TPP+guard", "FlexMem+guard",
}

// TestCheckpointShapeGolden pins each policy's CheckpointState JSON on
// the shared test world after 30 virtual seconds. A refactor that renames,
// reorders or re-encodes a checkpoint field, or changes what a policy has
// computed by then, fails here; checkpoints written by an older build
// would no longer restore into the same state.
func TestCheckpointShapeGolden(t *testing.T) {
	for _, name := range pinned {
		t.Run(name, func(t *testing.T) {
			pol, err := experiments.NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			w := policytest.Build(t, pol, 3072, 512, experiments.DefaultModeFor(name))
			w.Run(30 * simclock.Second)
			st, err := pol.CheckpointState()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "checkpoint", name+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s checkpoint differs from %s:\ngot  %.300s\nwant %.300s", name, path, got, want)
			}
		})
	}
}
