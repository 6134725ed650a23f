package vm

import (
	"testing"
	"testing/quick"

	"chrono/internal/mem"
)

func TestNewProcess(t *testing.T) {
	p := NewProcess(1, "test", 100)
	vmas := p.VMAs()
	if len(vmas) != 1 || vmas[0].Len != 100 {
		t.Fatalf("VMAs=%+v", vmas)
	}
	if p.ResidentPages() != 0 {
		t.Fatal("fresh process has resident pages")
	}
}

func TestPatternIndexAndWeights(t *testing.T) {
	p := NewProcess(1, "test", 100)
	start := p.VMAs()[0].Start
	p.SetPattern(start+10, 2.5, 0.8)
	p.RecomputeTotalWeight()
	if w := p.Weight(start + 10); w != 2.5 {
		t.Fatalf("Weight=%v", w)
	}
	if rf := p.ReadFrac(start + 10); rf != 0.8 {
		t.Fatalf("ReadFrac=%v", rf)
	}
	if p.TotalWeight != 2.5 {
		t.Fatalf("TotalWeight=%v", p.TotalWeight)
	}
	// Outside any VMA.
	if p.Weight(1) != 0 {
		t.Fatal("weight outside VMA should be 0")
	}
	if p.ReadFrac(1) != 1 {
		t.Fatal("read fraction outside VMA should default to 1")
	}
	if p.PatternIndex(start+200) != -1 {
		t.Fatal("PatternIndex past VMA end should be -1")
	}
}

func TestSetPatternOutsideVMAPanics(t *testing.T) {
	p := NewProcess(1, "test", 10)
	defer func() {
		if recover() == nil {
			t.Fatal("SetPattern outside VMA did not panic")
		}
	}()
	p.SetPattern(1, 1, 1)
}

func TestAddVMA(t *testing.T) {
	p := NewProcess(1, "test", 100)
	v2 := p.AddVMA(50, "heap2")
	if v2.Len != 50 {
		t.Fatalf("second VMA len %d", v2.Len)
	}
	first := p.VMAs()[0]
	if v2.Start < first.End() {
		t.Fatal("VMAs overlap")
	}
	p.SetPattern(v2.Start+5, 3, 0.5)
	if i := p.PatternIndex(v2.Start + 5); i != 105 {
		t.Fatalf("pattern index across VMAs = %d, want 105", i)
	}
	if w := p.Weight(v2.Start + 5); w != 3 {
		t.Fatalf("cross-VMA weight %v", w)
	}
}

func TestInsertRemovePage(t *testing.T) {
	p := NewProcess(1, "test", 1024)
	start := p.VMAs()[0].Start
	pg := &Page{ID: 0, VPN: start + 4, Proc: p, Size: 1}
	p.InsertPage(pg)
	if got := p.PageAt(start + 4); got != pg {
		t.Fatal("PageAt after insert")
	}
	if p.ResidentPages() != 1 {
		t.Fatalf("ResidentPages=%d", p.ResidentPages())
	}
	p.RemovePage(pg)
	if p.PageAt(start+4) != nil {
		t.Fatal("page still resident after remove")
	}
}

func TestHugePageCoverage(t *testing.T) {
	p := NewProcess(1, "test", 1024)
	start := p.VMAs()[0].Start
	huge := &Page{ID: 1, VPN: start, Proc: p, Size: 64, Flags: FlagHuge}
	p.InsertPage(huge)
	// Every covered VPN resolves to the same page.
	for i := uint64(0); i < 64; i++ {
		if p.PageAt(start+i) != huge {
			t.Fatalf("vpn +%d not covered by huge page", i)
		}
	}
	if p.PageAt(start+64) != nil {
		t.Fatal("coverage extends past huge page end")
	}
	if p.ResidentPages() != 64 {
		t.Fatalf("ResidentPages=%d", p.ResidentPages())
	}
	if !huge.IsHuge() {
		t.Fatal("IsHuge false")
	}
}

func TestPageWeightAggregation(t *testing.T) {
	p := NewProcess(1, "test", 1024)
	start := p.VMAs()[0].Start
	huge := &Page{ID: 1, VPN: start, Proc: p, Size: 4}
	p.InsertPage(huge)
	p.SetPattern(start+0, 1, 1.0)
	p.SetPattern(start+1, 3, 0.0)
	// +2 and +3 stay zero weight.
	w, rf := p.PageWeight(huge)
	if w != 4 {
		t.Fatalf("aggregated weight %v", w)
	}
	// Weighted read fraction: (1*1 + 3*0)/4 = 0.25.
	if rf != 0.25 {
		t.Fatalf("aggregated read fraction %v", rf)
	}
}

func TestPageWeightZero(t *testing.T) {
	p := NewProcess(1, "test", 16)
	start := p.VMAs()[0].Start
	pg := &Page{ID: 0, VPN: start, Proc: p, Size: 1}
	p.InsertPage(pg)
	w, rf := p.PageWeight(pg)
	if w != 0 || rf != 1 {
		t.Fatalf("zero-weight page: w=%v rf=%v", w, rf)
	}
}

func TestPageFlags(t *testing.T) {
	var f PageFlags
	f |= FlagProtNone | FlagDemoted
	if !f.Has(FlagProtNone) || !f.Has(FlagDemoted) {
		t.Fatal("Has failed on set flags")
	}
	if f.Has(FlagProbed) {
		t.Fatal("Has true on unset flag")
	}
	if !f.Has(FlagProtNone | FlagDemoted) {
		t.Fatal("Has failed on combined mask")
	}
	if f.Has(FlagProtNone | FlagProbed) {
		t.Fatal("Has should require all bits")
	}
	f &^= FlagProtNone
	if f.Has(FlagProtNone) {
		t.Fatal("clear failed")
	}
}

func TestPageZeroValue(t *testing.T) {
	pg := Page{Size: 1, Tier: mem.SlowTier}
	if pg.IsHuge() {
		t.Fatal("base page reported huge")
	}
	if pg.Flags != 0 {
		t.Fatal("zero page has flags")
	}
}

// TestPropertyTotalWeightMatchesSum: RecomputeTotalWeight equals the sum
// of whatever patterns were set.
func TestPropertyTotalWeightMatchesSum(t *testing.T) {
	f := func(weights []uint8) bool {
		if len(weights) == 0 || len(weights) > 256 {
			return true
		}
		p := NewProcess(1, "q", uint64(len(weights)))
		start := p.VMAs()[0].Start
		var want float64
		for i, w := range weights {
			p.SetPattern(start+uint64(i), float64(w), 0.5)
			want += float64(w)
		}
		p.RecomputeTotalWeight()
		return p.TotalWeight == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPageWeightPartition: the per-page aggregated weights of a
// partition of the VMA into huge pages sum to the total weight.
func TestPropertyPageWeightPartition(t *testing.T) {
	f := func(weights []uint8, sizeRaw uint8) bool {
		n := len(weights)
		if n == 0 || n > 256 {
			return true
		}
		size := int(sizeRaw%8) + 1
		p := NewProcess(1, "q", uint64(n))
		start := p.VMAs()[0].Start
		var want float64
		for i, w := range weights {
			p.SetPattern(start+uint64(i), float64(w), 1)
			want += float64(w)
		}
		var got float64
		for off := 0; off < n; off += size {
			sz := size
			if off+sz > n {
				sz = n - off
			}
			pg := &Page{ID: int64(off), VPN: start + uint64(off), Proc: p, Size: int32(sz)}
			p.InsertPage(pg)
			w, _ := p.PageWeight(pg)
			got += w
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDropDirty: DropDirty empties the dirty list and its marks like
// ClearDirty, so a page changed afterwards is listed again.
func TestDropDirty(t *testing.T) {
	p := NewProcess(1, "t", 8)
	start := p.VMAs()[0].Start
	for i := uint64(0); i < 8; i++ {
		p.SetPattern(start+i, 1, 0.5)
	}
	p.DropDirty()
	if n := len(p.DirtyIndexes()); n != 0 {
		t.Fatalf("%d dirty indexes after DropDirty", n)
	}
	p.SetPattern(start+3, 2, 0.5)
	if got := p.DirtyIndexes(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("dirty indexes %v after one change, want [3]", got)
	}
}
