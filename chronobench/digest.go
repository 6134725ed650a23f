package main

// Correctness gate. Simulated time is deterministic, so every simulated
// statistic is a check, not a measurement: each workload folds its
// outputs into a SHA-256 digest, the same seed must always give the same
// digest (across rounds, traced and untraced runs, paused and
// uninterrupted jobs, and the sweep and its replay), and for defaultSeed
// the digest must equal the reference recorded below.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"chrono/internal/engine"
	"chrono/internal/experiments"
	"chrono/internal/workload"
)

// defaultSeed is the seed whose digests are pinned in references.
const defaultSeed = 1

// references are the defaultSeed digests of each workload's simulated
// outputs. A change to simulated behaviour changes them; a performance
// change must not.
var references = map[string]string{
	"pmbench-fault":   "214478b594fcf646025814f96b967669c2e6556641d1c631a9f6d277673877d0",
	"adv-sweep":       "6ae5c17f14d24545f987b03fe2fc34b6445340895dbc02af7e207e08c0422d37",
	"chronod-durable": "0a72a72ecfb9fc2540833c722d60ee804fcf833e837e81e8381d6b4dee657ef1",
}

// digest folds labelled values into a SHA-256, in call order.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add appends label and the JSON encoding of v. encoding/json is
// deterministic for the struct and slice values used here.
func (d *digest) add(label string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		raw = []byte(fmt.Sprintf("unencodable: %v", err))
	}
	fmt.Fprintf(d.h, "%s=%s\n", label, raw)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// addRun folds one finished simulation: every engine.Metrics field (via
// its serializable state, histograms included) and the hot-page
// identification score.
func (d *digest) addRun(label string, e *engine.Engine, w workload.Workload, m *engine.Metrics) {
	d.add(label+"/metrics", m.State())
	_, f1, ppr := experiments.Score(&experiments.Result{Metrics: m, Engine: e, Workload: w})
	d.add(label+"/f1", f1)
	d.add(label+"/ppr", ppr)
}

// checkReference compares a run's digest with the pinned one. Seeds
// other than defaultSeed have no reference and are not checked.
func checkReference(workload string, seed uint64, got string) error {
	if seed != defaultSeed {
		return nil
	}
	if want := references[workload]; got != want {
		return fmt.Errorf("%s seed %d: simulated-output digest %s, reference %s", workload, seed, got, want)
	}
	return nil
}
