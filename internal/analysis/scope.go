package analysis

import "strings"

// Package scoping for the chronolint suite. Analyzers are unconditional —
// they flag every violation in whatever package they are run on — and the
// driver consults these predicates to decide where each one applies,
// mirroring how a multichecker scopes upstream analyzers.

// simPackages are the packages whose code feeds simulation results: the
// discrete-event engine, the Chrono implementation, the memory/VM models,
// every policy, and the workload generators. Determinism is load-bearing
// here — FMAR, CIT distributions, and Figures 6-13 are only reproducible
// if this code is a pure function of the seed.
var simPackages = []string{
	"chrono/internal/engine",
	"chrono/internal/core",
	"chrono/internal/mem",
	"chrono/internal/vm",
	"chrono/internal/policy",
	"chrono/internal/workload",
}

// IsSimPackage reports whether path is simulation code (including every
// policy under internal/policy/...).
func IsSimPackage(path string) bool {
	for _, p := range simPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// IsCmdPackage reports whether path is a CLI driver.
func IsCmdPackage(modPath, path string) bool {
	return strings.HasPrefix(path, modPath+"/cmd/")
}

// IsExamplePackage reports whether path is an examples/ program.
func IsExamplePackage(modPath, path string) bool {
	return strings.HasPrefix(path, modPath+"/examples/")
}

// isAnalysisPackage reports whether path is the analysis framework or one
// of the linters (whose fixtures and self-referential code the behavioural
// linters must not police).
func isAnalysisPackage(path string) bool {
	return path == "chrono/internal/analysis" ||
		strings.HasPrefix(path, "chrono/internal/analysis/")
}

// Applies reports whether the named analyzer runs on the package:
//
//	detclock    — simulation packages, cmd/ drivers, and examples/
//	              (drivers exempt intentional wall-clock uses line-by-line)
//	maporder    — simulation packages
//	errsink     — cmd/ drivers, examples/, and the engine
//	parcapture  — everywhere except the analysis framework
//	floatorder  — everywhere except the analysis framework
//	lockorder   — everywhere except the analysis framework
//	goroscope   — internal/ only (the daemon/engine code whose goroutines
//	              must have lifecycle owners), excluding the framework
//	statesync   — everywhere except the analysis framework (no-op in
//	              packages without //chrono:statesync pairs or
//	              Checkpointable-shaped types)
//	snapalias   — everywhere except the analysis framework
//	hotalloc    — everywhere except the analysis framework (no-op in
//	              packages without //chrono:hotpath roots)
func Applies(analyzer, modPath, pkgPath string) bool {
	switch analyzer {
	case "detclock":
		return IsSimPackage(pkgPath) || IsCmdPackage(modPath, pkgPath) ||
			IsExamplePackage(modPath, pkgPath)
	case "maporder":
		return IsSimPackage(pkgPath)
	case "errsink":
		return IsCmdPackage(modPath, pkgPath) || IsExamplePackage(modPath, pkgPath) ||
			pkgPath == "chrono/internal/engine"
	case "parcapture", "floatorder", "lockorder", "statesync",
		"snapalias", "hotalloc":
		return !isAnalysisPackage(pkgPath)
	case "goroscope":
		return strings.HasPrefix(pkgPath, modPath+"/internal/") && !isAnalysisPackage(pkgPath)
	default:
		return false
	}
}
