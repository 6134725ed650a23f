package flow

// Models for standard-library callees, which have no module-local source
// to summarize. Two tables: determinism-taint sources (the taint
// summaries) and allocating calls (hotalloc). Anything absent from both
// tables is treated as a pure, allocation-unknown function — its
// arguments' taints pass through to the result, and hotalloc does not
// flag it (recall tradeoff: the table lists the calls that matter on
// simulator hot paths, not the whole standard library).

import (
	"go/types"
)

// taintSources maps "pkgpath.Func" to the taint its result carries.
var taintSources = map[string]Taint{
	"time.Now":   TaintWallClock,
	"time.Since": TaintWallClock,
	"time.Until": TaintWallClock,

	"runtime.NumGoroutine": TaintGoroutine,

	// Global generators: every package-level draw. Seeded *rand.Rand
	// methods resolve to (*rand.Rand).X, not rand.X, so they are not
	// matched here.
	"math/rand.Int": TaintGlobalRand, "math/rand.Intn": TaintGlobalRand,
	"math/rand.Int31": TaintGlobalRand, "math/rand.Int31n": TaintGlobalRand,
	"math/rand.Int63": TaintGlobalRand, "math/rand.Int63n": TaintGlobalRand,
	"math/rand.Uint32": TaintGlobalRand, "math/rand.Uint64": TaintGlobalRand,
	"math/rand.Float32": TaintGlobalRand, "math/rand.Float64": TaintGlobalRand,
	"math/rand.ExpFloat64": TaintGlobalRand, "math/rand.NormFloat64": TaintGlobalRand,
	"math/rand.Perm": TaintGlobalRand, "math/rand.Shuffle": TaintGlobalRand,
	"math/rand/v2.Int": TaintGlobalRand, "math/rand/v2.IntN": TaintGlobalRand,
	"math/rand/v2.Int32": TaintGlobalRand, "math/rand/v2.Int32N": TaintGlobalRand,
	"math/rand/v2.Int64": TaintGlobalRand, "math/rand/v2.Int64N": TaintGlobalRand,
	"math/rand/v2.Uint32": TaintGlobalRand, "math/rand/v2.Uint64": TaintGlobalRand,
	"math/rand/v2.Float32": TaintGlobalRand, "math/rand/v2.Float64": TaintGlobalRand,
	"math/rand/v2.N": TaintGlobalRand, "math/rand/v2.Perm": TaintGlobalRand,
}

// stdlibTaint reports the modelled taint of a standard-library callee.
func stdlibTaint(fn *types.Func) (TaintSet, bool) {
	if fn.Pkg() == nil {
		return 0, false
	}
	if t, ok := taintSources[fn.Pkg().Path()+"."+fn.Name()]; ok {
		return TaintSet(0).With(t), true
	}
	return 0, false
}

// allocPkgs lists packages whose every function is modelled as
// allocating (formatting machinery).
var allocPkgs = map[string]string{
	"fmt": "fmt formats through reflection and allocates",
	"log": "log formats and allocates",
}

// allocFuncs lists individual allocating functions ("pkgpath.Func" and
// "pkgpath.Type.Method" forms).
var allocFuncs = map[string]string{
	"strconv.Itoa": "builds a string", "strconv.FormatInt": "builds a string",
	"strconv.FormatUint": "builds a string", "strconv.FormatFloat": "builds a string",
	"strconv.Quote": "builds a string", "strconv.FormatBool": "",

	"strings.Join": "builds a string", "strings.Split": "allocates a slice",
	"strings.Repeat": "builds a string", "strings.Replace": "builds a string",
	"strings.ReplaceAll": "builds a string", "strings.Fields": "allocates a slice",
	"strings.ToUpper": "builds a string", "strings.ToLower": "builds a string",
	"strings.Map": "builds a string", "strings.Builder.String": "copies the buffer",

	"bytes.Join": "allocates", "bytes.Split": "allocates a slice",
	"bytes.Repeat": "allocates", "bytes.Clone": "allocates",
	"bytes.ToUpper": "allocates", "bytes.ToLower": "allocates",

	"sort.Slice":         "allocates via reflection and a closure",
	"sort.SliceStable":   "allocates via reflection and a closure",
	"sort.SliceIsSorted": "allocates via reflection and a closure",

	"errors.New": "allocates an error",
}

// stdlibAllocates reports whether a standard-library callee is modelled
// as allocating, with the reason.
func stdlibAllocates(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	if why, ok := allocPkgs[pkg.Path()]; ok {
		return pkg.Path() + "." + fn.Name() + ": " + why, true
	}
	key := pkg.Path() + "." + fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			key = pkg.Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	if why, ok := allocFuncs[key]; ok {
		if why == "" {
			why = "allocates"
		}
		return key + ": " + why, true
	}
	return "", false
}
