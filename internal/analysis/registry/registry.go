// Package registry assembles the complete chronolint analyzer suite.
// cmd/chronolint and the driver integration tests both import it, so the
// set of analyzers that CI runs and the set the tests exercise cannot
// drift apart.
package registry

import (
	"chrono/internal/analysis"
	"chrono/internal/analysis/atomicmix"
	"chrono/internal/analysis/detclock"
	"chrono/internal/analysis/detflow"
	"chrono/internal/analysis/detrand"
	"chrono/internal/analysis/errsink"
	"chrono/internal/analysis/floatorder"
	"chrono/internal/analysis/goroscope"
	"chrono/internal/analysis/handlecheck"
	"chrono/internal/analysis/hotalloc"
	"chrono/internal/analysis/lockorder"
	"chrono/internal/analysis/maporder"
	"chrono/internal/analysis/parcapture"
	"chrono/internal/analysis/snapalias"
	"chrono/internal/analysis/statesync"
	"chrono/internal/analysis/unitmix"
)

// All returns the full chronolint suite in reporting order: the v1
// determinism linters, the v2 correctness wave, the v3
// concurrency-safety and checkpoint-integrity wave, then the v4
// interprocedural flow wave.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detclock.Analyzer,
		detrand.Analyzer,
		maporder.Analyzer,
		errsink.Analyzer,
		unitmix.Analyzer,
		parcapture.Analyzer,
		handlecheck.Analyzer,
		floatorder.Analyzer,
		lockorder.Analyzer,
		atomicmix.Analyzer,
		goroscope.Analyzer,
		statesync.Analyzer,
		snapalias.Analyzer,
		hotalloc.Analyzer,
		detflow.Analyzer,
	}
}
