package flow

import (
	"testing"

	"chrono/internal/analysis"
)

// loadTop loads the flow-test module's top package (which pulls util in
// bottom-up) and returns both package flows.
func loadTop(t *testing.T) (topPF, utilPF *PkgFlow) {
	t.Helper()
	loader, err := analysis.NewLoader("testdata/mod")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	topPkg, err := loader.Load("flowmod/top")
	if err != nil {
		t.Fatalf("Load top: %v", err)
	}
	topPF, err = PackageFlow(topPkg)
	if err != nil {
		t.Fatalf("PackageFlow top: %v", err)
	}
	utilPkg, err := loader.Load("flowmod/util")
	if err != nil {
		t.Fatalf("Load util: %v", err)
	}
	utilPF, err = PackageFlow(utilPkg)
	if err != nil {
		t.Fatalf("PackageFlow util: %v", err)
	}
	return topPF, utilPF
}

func fn(t *testing.T, pf *PkgFlow, name string) *FuncInfo {
	t.Helper()
	for _, fi := range pf.Ordered() {
		if fi.Name() == name {
			return fi
		}
	}
	t.Fatalf("function %q not found in %s", name, pf.Pkg.Path)
	return nil
}

func TestStdlibTaintSummaries(t *testing.T) {
	_, utilPF := loadTop(t)
	wall := fn(t, utilPF, "Wall")
	if !wall.ReturnTaint.Has(TaintWallClock) {
		t.Errorf("Wall.ReturnTaint = %v, want wall-clock", wall.ReturnTaint)
	}
	pass := fn(t, utilPF, "PassThrough")
	if pass.ParamToReturn&1 == 0 {
		t.Errorf("PassThrough.ParamToReturn = %b, want bit 0", pass.ParamToReturn)
	}
	if pass.ReturnTaint != 0 {
		t.Errorf("PassThrough.ReturnTaint = %v, want none", pass.ReturnTaint)
	}
}

func TestCrossPackageTaintPropagation(t *testing.T) {
	topPF, _ := loadTop(t)
	stamp := fn(t, topPF, "stamp")
	if !stamp.ReturnTaint.Has(TaintWallClock) {
		t.Errorf("stamp.ReturnTaint = %v, want wall-clock (via util.PassThrough(util.Wall()))", stamp.ReturnTaint)
	}
}

func TestParamToStateSink(t *testing.T) {
	topPF, utilPF := loadTop(t)
	add := fn(t, utilPF, "Store.Add")
	if add.ParamToState&1 == 0 {
		t.Errorf("Store.Add.ParamToState = %b, want bit 0 (v stored into //chrono:state field)", add.ParamToState)
	}
	push := fn(t, topPF, "push")
	if push.ParamToState&(1<<1) == 0 {
		t.Errorf("push.ParamToState = %b, want bit 1 (v forwarded into Store.Add)", push.ParamToState)
	}
}

func TestHotReachability(t *testing.T) {
	topPF, _ := loadTop(t)
	hot := topPF.HotReachable()
	root := fn(t, topPF, "eng.hotRoot")
	helper := fn(t, topPF, "helper")
	hp, ok := hot[root.Obj]
	if !ok || hp.Via != nil {
		t.Errorf("hotRoot: provenance = %+v, want root with nil Via", hp)
	}
	hp, ok = hot[helper.Obj]
	if !ok {
		t.Fatal("helper not hot-reachable from hotRoot")
	}
	if hp.Root != root || hp.Via != root {
		t.Errorf("helper provenance = root %s via %v, want root hotRoot via hotRoot", hp.Root.Name(), hp.Via)
	}
	if got := hp.Chain(); got != "eng.hotRoot" {
		t.Errorf("helper Chain() = %q, want %q", got, "eng.hotRoot")
	}
	if !topPF.HotLocally(helper.Obj) {
		t.Error("HotLocally(helper) = false, want true")
	}
	cold := fn(t, topPF, "push")
	if _, ok := hot[cold.Obj]; ok {
		t.Error("push is hot-reachable, want cold")
	}
}

func TestAllocScan(t *testing.T) {
	topPF, _ := loadTop(t)
	helper := fn(t, topPF, "helper")
	var kinds []AllocKind
	for _, a := range helper.Allocs {
		kinds = append(kinds, a.Kind)
	}
	found := false
	for _, k := range kinds {
		if k == AllocMake {
			found = true
		}
	}
	if !found {
		t.Errorf("helper.Allocs = %v, want an AllocMake site", kinds)
	}
	// enqueue's append reuses q.pending — no AllocAppendFresh.
	enq := fn(t, topPF, "enqueue")
	for _, a := range enq.Allocs {
		if a.Kind == AllocAppendFresh {
			t.Errorf("enqueue flagged AllocAppendFresh (%s); append reuses q.pending", a.Detail)
		}
	}
}

func TestEnvEval(t *testing.T) {
	topPF, _ := loadTop(t)
	stamp := fn(t, topPF, "stamp")
	env := topPF.EnvOf(stamp)
	// The single return expression carries wall-clock taint.
	ret := stamp.Decl.Body.List[len(stamp.Decl.Body.List)-1]
	_ = ret
	for _, c := range stamp.Calls {
		if c.Callee.Name() == "PassThrough" {
			taint, _ := env.Eval(c.Args[0])
			if !taint.Has(TaintWallClock) {
				t.Errorf("Eval(util.Wall()) taint = %v, want wall-clock", taint)
			}
		}
	}
}
