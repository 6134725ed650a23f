package workload

import (
	"math"
	"sort"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/mem"
	"chrono/internal/simclock"
)

func newEngine() *engine.Engine {
	return engine.New(engine.Config{Seed: 5, FastGB: 16, SlowGB: 48})
}

func TestGaussianWeights(t *testing.T) {
	w := gaussianWeights(100, 10, 1)
	// Peak at the centre.
	if w[50] <= w[10] || w[50] <= w[90] {
		t.Fatal("Gaussian not peaked at the centre")
	}
	// Symmetric-ish.
	if math.Abs(w[40]-w[60])/w[50] > 0.05 {
		t.Fatalf("asymmetric: %v vs %v", w[40], w[60])
	}
	// Stride 2 zeroes odd indices.
	w2 := gaussianWeights(100, 10, 2)
	for i := 1; i < 100; i += 2 {
		if w2[i] != 0 {
			t.Fatalf("stride-2 weight at odd index %d: %v", i, w2[i])
		}
	}
	if w2[50] == 0 {
		t.Fatal("stride-2 zeroed even index")
	}
}

func TestHotCenter(t *testing.T) {
	if !hotCenter(50, 100, 0.25) {
		t.Fatal("centre not hot")
	}
	if hotCenter(10, 100, 0.25) || hotCenter(90, 100, 0.25) {
		t.Fatal("edges hot")
	}
	if !hotCenter(37, 100, 0.25) || hotCenter(36, 100, 0.25) {
		t.Fatal("hot boundary misplaced")
	}
}

func TestPmbenchBuild(t *testing.T) {
	e := newEngine()
	w := &Pmbench{Processes: 4, WorkingSetGB: 10, ReadPct: 70, Stride: 2}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	procs := e.Processes()
	if len(procs) != 4 {
		t.Fatalf("%d processes", len(procs))
	}
	wantPages := uint64(10 * 256)
	if procs[0].VMAs()[0].Len != wantPages {
		t.Fatalf("working set %d pages", procs[0].VMAs()[0].Len)
	}
	// Ground truth: hot pages exist and follow the stride.
	p := procs[0]
	start := p.VMAs()[0].Start
	mid := start + wantPages/2
	if !w.HotPage(p, mid) {
		t.Fatal("centre page not hot")
	}
	if w.HotPage(p, mid+1) {
		t.Fatal("stride-skipped page reported hot")
	}
	if w.HotPage(p, start) {
		t.Fatal("edge page reported hot")
	}
	if w.HotPage(p, 0) {
		t.Fatal("out-of-VMA page reported hot")
	}
	// Weight and hotness coincide.
	if p.Weight(mid) == 0 {
		t.Fatal("hot page has zero weight")
	}
}

func TestPmbenchUniformHasNoHotSet(t *testing.T) {
	e := newEngine()
	w := &Pmbench{Processes: 2, WorkingSetGB: 5, ReadPct: 50, Pattern: PatternUniform}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	p := e.Processes()[0]
	start := p.VMAs()[0].Start
	if w.HotPage(p, start+100) {
		t.Fatal("uniform pattern reported a hot page")
	}
	if p.Weight(start+100) != 1 {
		t.Fatalf("uniform weight %v", p.Weight(start+100))
	}
}

func TestPmbenchDelayScaling(t *testing.T) {
	e := newEngine()
	w := &Pmbench{Processes: 3, WorkingSetGB: 4, ReadPct: 70, DelayUnitNS: 20}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	procs := e.Processes()
	if procs[0].DelayNS != 0 || procs[1].DelayNS != 20 || procs[2].DelayNS != 40 {
		t.Fatalf("delays %v %v %v", procs[0].DelayNS, procs[1].DelayNS, procs[2].DelayNS)
	}
}

func TestGraph500Build(t *testing.T) {
	e := newEngine()
	w := &Graph500{TotalGB: 32, Processes: 4, RoundSeconds: 5}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	if len(e.Processes()) != 4 {
		t.Fatal("process count")
	}
	p := e.Processes()[0]
	// Vertex region pages are ground-truth hot.
	if !w.HotPage(p, p.VMAs()[0].Start) {
		t.Fatal("vertex page not hot")
	}
	// Run through a couple of BFS rounds: weights must change.
	start := p.VMAs()[0].Start
	edgeVPN := start + p.VMAs()[0].Len - 10
	before := p.Weight(edgeVPN)
	e.Clock().RunUntil(11 * simclock.Second)
	after := p.Weight(edgeVPN)
	if before == after {
		t.Fatal("BFS rounds did not re-jitter edge weights")
	}
}

// A working set too small to give every process a page is a build error,
// not an index panic.
func TestGraph500SubPageProcessIsError(t *testing.T) {
	w := &Graph500{TotalGB: 0.001}
	if err := w.Build(newEngine()); err == nil {
		t.Fatal("sub-page graph500 processes built without error")
	}
}

func TestGraph500ExecutionTime(t *testing.T) {
	w := &Graph500{WorkAccesses: 1e9}
	m := &engine.Metrics{Accesses: 2e9, Duration: 10 * simclock.Second}
	// Throughput 200 Mop/s -> 1e9 work takes 5 s.
	if got := w.ExecutionTime(m); math.Abs(got-5) > 1e-9 {
		t.Fatalf("ExecutionTime=%v", got)
	}
	if !math.IsInf(w.ExecutionTime(&engine.Metrics{Duration: simclock.Second}), 1) {
		t.Fatal("zero throughput should give +Inf execution time")
	}
}

func TestKVStoreBuild(t *testing.T) {
	e := newEngine()
	w := &KVStore{Flavor: Memcached, StoreGB: 32, SetRatio: 1, GetRatio: 10, Shards: 4}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	if len(e.Processes()) != 4 {
		t.Fatal("shards")
	}
	p := e.Processes()[0]
	start := p.VMAs()[0].Start
	n := p.VMAs()[0].Len
	// GET-heavy mix: read fraction high.
	if rf := p.ReadFrac(start + n/2); rf < 0.85 {
		t.Fatalf("1:10 SET:GET read fraction %v", rf)
	}
	if !w.HotPage(p, start+n/2) || w.HotPage(p, start) {
		t.Fatal("hot region wrong")
	}
}

func TestRedisScattersPopularity(t *testing.T) {
	build := func(f KVFlavor) float64 {
		e := newEngine()
		w := &KVStore{Flavor: f, StoreGB: 32, SetRatio: 1, GetRatio: 1, Shards: 2}
		if err := w.Build(e); err != nil {
			t.Fatal(err)
		}
		p := e.Processes()[0]
		start, n := p.VMAs()[0].Start, p.VMAs()[0].Len
		// Concentration metric: weight share of the central quarter.
		var centre, total float64
		for i := uint64(0); i < n; i++ {
			wgt := p.Weight(start + i)
			total += wgt
			if hotCenter(int(i), int(n), 0.25) {
				centre += wgt
			}
		}
		return centre / total
	}
	mc := build(Memcached)
	rd := build(Redis)
	if rd >= mc {
		t.Fatalf("redis (%.3f) should be less concentrated than memcached (%.3f)", rd, mc)
	}
	if mc < 0.5 {
		t.Fatalf("memcached concentration %v too low", mc)
	}
}

func TestRedisSingleThreadedCost(t *testing.T) {
	e := newEngine()
	w := &KVStore{Flavor: Redis, StoreGB: 16, SetRatio: 1, GetRatio: 1, Shards: 2}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	if e.Processes()[0].DelayNS == 0 {
		t.Fatal("redis per-op CPU cost missing")
	}
}

func TestMultiTenantBuild(t *testing.T) {
	e := newEngine()
	w := &MultiTenant{Tenants: 10}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	procs := e.Processes()
	if len(procs) != 10 {
		t.Fatal("tenants")
	}
	// Delay grades with tenant index.
	if !(procs[0].DelayNS < procs[5].DelayNS && procs[5].DelayNS < procs[9].DelayNS) {
		t.Fatal("delays not graded")
	}
	// Aggregate fills ~97% of total memory.
	var resident int64
	for _, p := range procs {
		resident += int64(p.VMAs()[0].Len)
	}
	total := float64(e.Config().FastGB+e.Config().SlowGB) * float64(e.Config().PagesPerGB)
	if frac := float64(resident) / total; frac < 0.9 || frac > 1.0 {
		t.Fatalf("aggregate working set fraction %v", frac)
	}
	// Ground truth: hottest quarter of tenants.
	if !w.HotPage(procs[0], procs[0].VMAs()[0].Start) {
		t.Fatal("tenant 0 not hot")
	}
	if w.HotPage(procs[9], procs[9].VMAs()[0].Start) {
		t.Fatal("tenant 9 hot")
	}
}

func TestWorkloadNames(t *testing.T) {
	for _, w := range []Workload{
		&Pmbench{Processes: 1, WorkingSetGB: 1, ReadPct: 70},
		&Graph500{TotalGB: 8},
		&KVStore{Flavor: Redis, SetRatio: 1, GetRatio: 1},
		&MultiTenant{Tenants: 5},
	} {
		if w.Name() == "" {
			t.Fatalf("%T has empty name", w)
		}
	}
}

func TestGBScaling(t *testing.T) {
	e := newEngine()
	if got := GB(e, 2); got != 512 {
		t.Fatalf("GB(2)=%d at 256 pages/GB", got)
	}
}

func TestSlowTierInitialPlacementOfHotCentre(t *testing.T) {
	// With a 25% fast ratio, the Gaussian centre must start mostly in
	// the slow tier (the interesting initial condition of every figure).
	e := newEngine()
	w := &Pmbench{Processes: 4, WorkingSetGB: 15, ReadPct: 70, Stride: 2}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	p := e.Processes()[0]
	start, n := p.VMAs()[0].Start, p.VMAs()[0].Len
	slowHot := 0
	totalHot := 0
	for i := uint64(0); i < n; i++ {
		if !w.HotPage(p, start+i) {
			continue
		}
		totalHot++
		if pg := p.PageAt(start + i); pg != nil && pg.Tier == mem.SlowTier {
			slowHot++
		}
	}
	if totalHot == 0 {
		t.Fatal("no hot pages")
	}
	if frac := float64(slowHot) / float64(totalHot); frac < 0.5 {
		t.Fatalf("only %.2f of the hot set starts slow", frac)
	}
}

func TestPmbenchZipfPattern(t *testing.T) {
	e := newEngine()
	w := &Pmbench{Processes: 2, WorkingSetGB: 8, ReadPct: 70, Stride: 2, Pattern: PatternZipf}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	p := e.Processes()[0]
	start, n := p.VMAs()[0].Start, p.VMAs()[0].Len
	// Stride holes stay zero.
	for i := uint64(1); i < n; i += 2 {
		if p.Weight(start+i) != 0 {
			t.Fatalf("stride hole weighted at +%d", i)
		}
	}
	// Heavy tail: the max weight dominates the median weight.
	var maxW float64
	var ws []float64
	hot := 0
	for i := uint64(0); i < n; i += 2 {
		v := p.Weight(start + i)
		ws = append(ws, v)
		if v > maxW {
			maxW = v
		}
		if w.HotPage(p, start+i) {
			hot++
		}
	}
	if maxW < 100*medianOf(ws) {
		t.Fatalf("zipf not heavy-tailed: max %v median %v", maxW, medianOf(ws))
	}
	// Hot ground truth covers roughly HotFrac of accessed pages.
	frac := float64(hot) / float64(len(ws))
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("hot fraction %v, want ~0.25", frac)
	}
	// No spatial structure: hottest page is rarely at the centre — just
	// verify hot pages are spread: both halves contain hot pages.
	firstHalf, secondHalf := 0, 0
	for i := uint64(0); i < n; i += 2 {
		if w.HotPage(p, start+i) {
			if i < n/2 {
				firstHalf++
			} else {
				secondHalf++
			}
		}
	}
	if firstHalf == 0 || secondHalf == 0 {
		t.Fatal("zipf hot set is spatially clustered")
	}
}

func medianOf(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}
