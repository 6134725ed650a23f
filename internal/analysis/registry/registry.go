// Package registry assembles the complete chronolint analyzer suite.
// cmd/chronolint and the driver integration tests both import it, so the
// set of analyzers that CI runs and the set the tests exercise cannot
// drift apart.
package registry

import (
	"chrono/internal/analysis"
	"chrono/internal/analysis/detclock"
	"chrono/internal/analysis/errsink"
	"chrono/internal/analysis/floatorder"
	"chrono/internal/analysis/goroscope"
	"chrono/internal/analysis/hotalloc"
	"chrono/internal/analysis/lockorder"
	"chrono/internal/analysis/maporder"
	"chrono/internal/analysis/parcapture"
	"chrono/internal/analysis/snapalias"
	"chrono/internal/analysis/statesync"
)

// All returns the full chronolint suite in reporting order: the
// determinism and correctness analyzers, the concurrency-safety and
// checkpoint-integrity analyzers, then the interprocedural hotalloc.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detclock.Analyzer,
		maporder.Analyzer,
		errsink.Analyzer,
		parcapture.Analyzer,
		floatorder.Analyzer,
		lockorder.Analyzer,
		goroscope.Analyzer,
		statesync.Analyzer,
		snapalias.Analyzer,
		hotalloc.Analyzer,
	}
}
