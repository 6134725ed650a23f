package pebs

import (
	"math"
	"testing"
	"testing/quick"

	"chrono/internal/rng"
)

func TestBinOf(t *testing.T) {
	cases := map[uint32]int{
		0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 15: 4, 16: 5,
		255: 8, 256: 9, 1 << 20: 21,
	}
	for count, want := range cases {
		if got := BinOf(count); got != want {
			t.Fatalf("BinOf(%d)=%d, want %d", count, got, want)
		}
	}
}

func TestSamplerProportionality(t *testing.T) {
	r := rng.New(7)
	s := NewSampler(r, 100000)
	weights := []float64{1, 9, 0, 90}
	ids := []int64{0, 1, 2, 3}
	dist := rng.NewAlias(r, weights)
	kept := s.SamplePeriod(dist, ids, 1.0)
	if kept != 100000 {
		t.Fatalf("kept %d samples, want 100000", kept)
	}
	if s.Counter(2) != 0 {
		t.Fatal("zero-weight page sampled")
	}
	// Counter ratios should track weights within sampling noise.
	r31 := float64(s.Counter(3)) / float64(s.Counter(1))
	if math.Abs(r31-10) > 1 {
		t.Fatalf("counter ratio id3/id1 = %v, want ~10", r31)
	}
	if s.TotalSamples() != 100000 {
		t.Fatalf("TotalSamples=%d", s.TotalSamples())
	}
}

func TestSamplerLossRate(t *testing.T) {
	r := rng.New(9)
	s := NewSampler(r, 10000)
	s.LossRate = 0.5
	dist := rng.NewAlias(r, []float64{1})
	kept := s.SamplePeriod(dist, []int64{0}, 1.0)
	if kept < 4500 || kept > 5500 {
		t.Fatalf("with 50%% loss kept %d of 10000", kept)
	}
}

func TestSamplerCool(t *testing.T) {
	s := NewSampler(rng.New(1), 100)
	s.AddDirect(0, 9)
	s.AddDirect(1, 100)
	total := s.Cool()
	if s.Counter(0) != 4 || s.Counter(1) != 50 {
		t.Fatalf("after cool: %d, %d", s.Counter(0), s.Counter(1))
	}
	if total != 54 || s.TotalSamples() != 54 {
		t.Fatalf("cool total %d", total)
	}
}

func TestSamplerClearAndReset(t *testing.T) {
	s := NewSampler(rng.New(1), 100)
	s.AddDirect(0, 10)
	s.AddDirect(1, 20)
	s.Clear(0)
	if s.Counter(0) != 0 || s.TotalSamples() != 20 {
		t.Fatal("Clear wrong")
	}
	s.Reset()
	if s.Counter(1) != 0 || s.TotalSamples() != 0 {
		t.Fatal("Reset wrong")
	}
	// Clearing an untracked page is safe.
	s.Clear(999)
}

func TestSamplerCounterOutOfRange(t *testing.T) {
	s := NewSampler(rng.New(1), 100)
	if s.Counter(12345) != 0 {
		t.Fatal("counter of unknown page should be 0")
	}
}

func TestDefaultRate(t *testing.T) {
	s := NewSampler(rng.New(1), 0)
	if s.RatePerSec != DefaultSampleRate {
		t.Fatalf("default rate %v", s.RatePerSec)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(6)
	for _, c := range []uint32{0, 0, 1, 2, 4, 100} {
		h.Add(c)
	}
	if h.Total() != 6 {
		t.Fatalf("Total=%d", h.Total())
	}
	if h.Bins[0] != 2 { // two zeros
		t.Fatalf("bin0=%d", h.Bins[0])
	}
	if h.Bins[5] != 1 { // 100 clamps into the last bin
		t.Fatalf("last bin=%d", h.Bins[5])
	}
	props := h.Proportions()
	var sum float64
	for _, p := range props {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("proportions sum %v", sum)
	}
}

func TestHistogramEmptyProportions(t *testing.T) {
	h := NewHistogram(4)
	for _, p := range h.Proportions() {
		if p != 0 {
			t.Fatal("empty histogram proportions nonzero")
		}
	}
}

func TestHotThresholdBin(t *testing.T) {
	h := NewHistogram(8)
	// Populate: bin 7 has 10 pages, bin 6 has 20, bin 5 has 100.
	sizes := map[int]int64{7: 10, 6: 20, 5: 100}
	sizeOf := func(b int) int64 { return sizes[b] }
	// Capacity 25: bins 7 (10) fit, adding bin 6 (30 total) exceeds ->
	// threshold must be 7.
	if got := h.HotThresholdBin(25, sizeOf); got != 7 {
		t.Fatalf("HotThresholdBin(25)=%d, want 7", got)
	}
	// Capacity 35: bins 7+6 = 30 fit, bin 5 overflows -> threshold 6.
	if got := h.HotThresholdBin(35, sizeOf); got != 6 {
		t.Fatalf("HotThresholdBin(35)=%d, want 6", got)
	}
	// Huge capacity: everything fits -> threshold 1 (any sampled page).
	if got := h.HotThresholdBin(1<<40, sizeOf); got != 1 {
		t.Fatalf("HotThresholdBin(big)=%d, want 1", got)
	}
}

// TestPropertyBinOfMonotone: BinOf is monotone non-decreasing and
// consistent with powers of two.
func TestPropertyBinOfMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		if a > b {
			a, b = b, a
		}
		return BinOf(a) <= BinOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySamplerTotal: retained samples equal the counter sum.
func TestPropertySamplerTotal(t *testing.T) {
	f := func(seed uint64, weightsRaw []uint8) bool {
		if len(weightsRaw) == 0 {
			return true
		}
		r := rng.New(seed)
		weights := make([]float64, len(weightsRaw))
		ids := make([]int64, len(weightsRaw))
		var total float64
		for i, w := range weightsRaw {
			weights[i] = float64(w)
			ids[i] = int64(i)
			total += float64(w)
		}
		if total == 0 {
			weights[0] = 1
		}
		s := NewSampler(r, 500)
		dist := rng.NewAlias(r, weights)
		kept := s.SamplePeriod(dist, ids, 1.0)
		var sum uint64
		for _, id := range ids {
			sum += uint64(s.Counter(id))
		}
		return int(sum) == kept && sum == s.TotalSamples()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSetStateRejectsMalformed: a corrupted snapshot — ragged columns, an
// index outside [0, Len), a negative Len — is an error, not a panic or an
// unbounded allocation, and leaves the counters untouched.
func TestSetStateRejectsMalformed(t *testing.T) {
	s := NewSampler(rng.New(1), 100)
	s.AddDirect(2, 7)
	for _, st := range []SamplerState{
		{Len: 4, Idx: []int64{1, 2}, Count: []uint32{5}},
		{Len: 4, Idx: []int64{1}, Count: []uint32{5, 6}},
		{Len: 4, Idx: []int64{-1}, Count: []uint32{5}},
		{Len: 4, Idx: []int64{4}, Count: []uint32{5}},
		{Len: 4, Idx: []int64{1 << 40}, Count: []uint32{5}},
		{Len: -1},
	} {
		if err := s.SetState(st); err == nil {
			t.Errorf("SetState(%+v) accepted", st)
		}
	}
	if s.Counter(2) != 7 || s.TotalSamples() != 7 {
		t.Fatalf("rejected restores changed the counters: %d/%d", s.Counter(2), s.TotalSamples())
	}
	if err := s.SetState(SamplerState{Len: 4, Idx: []int64{3}, Count: []uint32{5}, Total: 5}); err != nil {
		t.Fatal(err)
	}
	if s.Counter(2) != 0 || s.Counter(3) != 5 {
		t.Fatalf("valid restore: counters %d, %d", s.Counter(2), s.Counter(3))
	}
}
