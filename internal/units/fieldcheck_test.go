package units_test

import (
	"reflect"
	"strings"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/mem"
	"chrono/internal/policy/scan"
)

// unitPkgs are the packages whose types carry their unit in the type
// system: a field of one of these types needs no name suffix.
var unitPkgs = map[string]bool{
	"chrono/internal/units":    true,
	"chrono/internal/simclock": true, // Time/Duration are integer ns
}

// unitSuffixes are the name suffixes that declare a bare numeric field's
// unit. A suffix only counts after a lowercase/digit camelCase break.
var unitSuffixes = []string{
	"BytesPerSec", "PerSec", "PerGB", "Seconds", "Bytes", "Sec", "NS", "MS", "Hz", "GB", "S",
}

// dimensionless lists config fields that are genuinely unit-free: seeds,
// page and event counts, histogram depths, ratios, and scale factors.
// Adding a numeric field to a config struct means either giving it a
// units type, a unit suffix, or an entry here.
var dimensionless = map[string]bool{
	// engine.Config
	"Seed":       true,
	"HugeFactor": true, // pages folded per huge page
	"Shards":     true, // deprecated, ignored by the engine
	// mem.Config / mem.Node
	"FastPages":     true,
	"SlowPages":     true,
	"PromotedPages": true,
	"DemotedPages":  true,
	// scan.Config
	"StepPages": true, // pages per scan step
}

// TestConfigFieldsDeclareUnits walks every exported numeric field of the
// engine, mem, and policy configuration structs and asserts its unit is
// visible: a units/simclock type, a unit-suffixed name, or an explicit
// dimensionless entry above. This is the reflective twin of the unitmix
// analyzer — it keeps new config knobs from reintroducing anonymous
// float64 quantities.
func TestConfigFieldsDeclareUnits(t *testing.T) {
	structs := []any{
		engine.Config{},
		mem.Config{},
		mem.Node{},
		scan.Config{},
	}
	for _, s := range structs {
		rt := reflect.TypeOf(s)
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if !f.IsExported() || !isNumericKind(f.Type.Kind()) {
				continue
			}
			if unitPkgs[f.Type.PkgPath()] {
				continue
			}
			if hasUnitSuffix(f.Name) {
				continue
			}
			if dimensionless[f.Name] {
				continue
			}
			t.Errorf("%s.%s.%s (%s): numeric field declares no unit — use a "+
				"units type, a unit suffix (NS/MS/S/Hz/GB/Bytes), or add it to "+
				"the dimensionless allowlist with a justification",
				rt.PkgPath(), rt.Name(), f.Name, f.Type)
		}
	}
}

// isNumericKind reports whether k is an integer or float kind.
func isNumericKind(k reflect.Kind) bool {
	switch k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// hasUnitSuffix mirrors the unitmix analyzer's suffix rule: the suffix
// must follow a lowercase letter or digit.
func hasUnitSuffix(name string) bool {
	for _, suf := range unitSuffixes {
		if !strings.HasSuffix(name, suf) || len(name) == len(suf) {
			continue
		}
		prev := name[len(name)-len(suf)-1]
		if (prev >= 'a' && prev <= 'z') || (prev >= '0' && prev <= '9') {
			return true
		}
	}
	return false
}
