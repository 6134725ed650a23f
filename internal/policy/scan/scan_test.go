package scan

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// buildKernel assembles a small engine with one uniformly-weighted process.
func buildKernel(t *testing.T, pages uint64) (policy.Kernel, *vm.Process) {
	t.Helper()
	e := engine.New(engine.Config{Seed: 1, FastGB: 4, SlowGB: 12})
	p := vm.NewProcess(1, "scan", pages)
	start := p.VMAs()[0].Start
	for i := uint64(0); i < pages; i++ {
		p.SetPattern(start+i, 1, 1)
	}
	e.AddProcess(p, 1)
	if err := e.MapAll(engine.BasePages); err != nil {
		t.Fatal(err)
	}
	return e, p
}

func TestFullPassPerPeriod(t *testing.T) {
	k, p := buildKernel(t, 1000)
	visited := make(map[uint64]int)
	cfg := Config{Period: 10 * simclock.Second, StepPages: 100}
	s := Start(k, cfg, func(pg *vm.Page, now simclock.Time) {
		visited[pg.VPN]++
	})
	k.Clock().RunUntil(10*simclock.Second + simclock.Millisecond)
	if len(visited) != 1000 {
		t.Fatalf("one period visited %d of 1000 pages", len(visited))
	}
	for vpn, n := range visited {
		if n != 1 {
			t.Fatalf("vpn %#x visited %d times in one period", vpn, n)
		}
	}
	if s.Walkers[0].Passes != 1 {
		t.Fatalf("Passes=%d", s.Walkers[0].Passes)
	}
	_ = p
}

func TestTwoPassesVisitTwice(t *testing.T) {
	k, _ := buildKernel(t, 500)
	visits := 0
	Start(k, Config{Period: 5 * simclock.Second, StepPages: 50}, func(pg *vm.Page, now simclock.Time) {
		visits++
	})
	k.Clock().RunUntil(10*simclock.Second + simclock.Millisecond)
	if visits != 1000 {
		t.Fatalf("two periods visited %d, want 1000", visits)
	}
}

func TestDefaultsFromKernel(t *testing.T) {
	k, _ := buildKernel(t, 100)
	cfg := Config{}.WithDefaults(k)
	if cfg.Period != simclock.Minute {
		t.Fatalf("default period %v", cfg.Period)
	}
	if cfg.StepPages < 8 {
		t.Fatalf("default step %d", cfg.StepPages)
	}
}

func TestSetPeriod(t *testing.T) {
	k, _ := buildKernel(t, 200)
	visits := 0
	s := Start(k, Config{Period: 100 * simclock.Second, StepPages: 20}, func(pg *vm.Page, now simclock.Time) {
		visits++
	})
	// Speed the scan up mid-flight.
	k.Clock().AtKey(simclock.Second, "test/speedup", 0, 0, func(simclock.Time) {
		s.SetPeriod(2 * simclock.Second)
	})
	k.Clock().RunUntil(10 * simclock.Second)
	if visits < 400 {
		t.Fatalf("accelerated scan visited only %d", visits)
	}
	if s.Config().Period != 2*simclock.Second {
		t.Fatalf("period not updated: %v", s.Config().Period)
	}
	// Invalid period is ignored.
	s.SetPeriod(0)
	if s.Config().Period != 2*simclock.Second {
		t.Fatal("zero period applied")
	}
}

func TestHugePagesAdvanceBySize(t *testing.T) {
	e := engine.New(engine.Config{Seed: 1, FastGB: 4, SlowGB: 12})
	p := vm.NewProcess(1, "huge", 256)
	start := p.VMAs()[0].Start
	for i := uint64(0); i < 256; i++ {
		p.SetPattern(start+i, 1, 1)
	}
	e.AddProcess(p, 1)
	if err := e.MapAll(engine.HugePages); err != nil {
		t.Fatal(err)
	}
	var visited []*vm.Page
	Start(e, Config{Period: simclock.Second, StepPages: 256}, func(pg *vm.Page, now simclock.Time) {
		visited = append(visited, pg)
	})
	e.Clock().RunUntil(simclock.Second + simclock.Millisecond)
	want := 256 / e.Config().HugeFactor
	if len(visited) != want {
		t.Fatalf("visited %d huge pages, want %d", len(visited), want)
	}
}

// TestSetStateRejectsVMAOutOfRange: a walker position outside the
// process's VMAs is a restore error, not a panic at the next step, and
// a rejected state leaves the walkers where they were.
func TestSetStateRejectsVMAOutOfRange(t *testing.T) {
	k, _ := buildKernel(t, 100)
	s := Start(k, Config{Period: simclock.Second, StepPages: 10}, func(*vm.Page, simclock.Time) {})
	k.Clock().RunUntil(simclock.Second / 2)
	want := s.State()
	for _, vma := range []int{-1, 1, 5} {
		st := s.State()
		st.Walkers[0].VMA = vma
		if err := s.SetState(st); err == nil {
			t.Errorf("SetState accepted walker VMA %d of a one-VMA process", vma)
		}
		if got := s.State(); got.Walkers[0] != want.Walkers[0] {
			t.Errorf("rejected VMA %d moved the walker to %+v", vma, got.Walkers[0])
		}
	}
	if err := s.SetState(want); err != nil {
		t.Fatalf("SetState of the live state: %v", err)
	}
	k.Clock().RunUntil(2 * simclock.Second)
}
