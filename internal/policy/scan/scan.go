// Package scan provides the paced address-space walker shared by every
// fault-based policy (Linux-NB, AutoTiering, TPP, and Chrono's
// Ticking-scan): it divides each process's virtual address space into
// scan-step chunks and visits them on a schedule such that one full pass
// takes the configured scan period, mirroring task_numa_work's pacing.
package scan

import (
	"fmt"

	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// Visit is called for each resident page reached by the walker.
type Visit func(pg *vm.Page, now simclock.Time)

// Walker paces scans over one process.
type Walker struct {
	Proc *vm.Process

	vma    int
	next   uint64
	ticker *simclock.Ticker
	// Passes counts completed full walks of the address space.
	Passes int
}

// Config parameterizes a scanner set.
type Config struct {
	// Period is the time one full pass should take (default 60 s).
	Period simclock.Duration
	// StepPages is the chunk size in base pages (default
	// DefaultStepPages of the node).
	StepPages int
}

// DefaultStepPages is the default scan step of a node with totalPages
// base pages: 256 MB worth, totalPages/1024, and at least 8.
func DefaultStepPages(totalPages int64) int {
	return max(int(totalPages/1024), 8)
}

// WithDefaults fills zero fields from kernel state.
func (c Config) WithDefaults(k policy.Kernel) Config {
	if c.Period == 0 {
		c.Period = simclock.Minute
	}
	if c.StepPages == 0 {
		c.StepPages = DefaultStepPages(k.Node().Capacity(mem.FastTier) + k.Node().Capacity(mem.SlowTier))
	}
	return c
}

// Set is the collection of per-process walkers of one policy.
type Set struct {
	cfg     Config
	k       policy.Kernel
	visit   Visit
	Walkers []*Walker
}

// Start creates a walker per process and begins the paced scan. The visit
// callback runs for every resident page poisoned/visited.
func Start(k policy.Kernel, cfg Config, visit Visit) *Set {
	s := &Set{cfg: cfg.WithDefaults(k), k: k, visit: visit}
	for _, proc := range k.Processes() {
		w := &Walker{Proc: proc}
		if len(proc.VMAs()) > 0 {
			w.next = proc.VMAs()[0].Start
		}
		s.Walkers = append(s.Walkers, w)
		s.start(w)
	}
	return s
}

// Config returns the effective configuration.
func (s *Set) Config() Config { return s.cfg }

// SetPeriod changes the pass period for subsequent ticks.
func (s *Set) SetPeriod(d simclock.Duration) {
	if d <= 0 {
		return
	}
	s.cfg.Period = d
	for _, w := range s.Walkers {
		if w.ticker != nil {
			w.ticker.Reset(s.interval(w))
		}
	}
}

func (s *Set) interval(w *Walker) simclock.Duration {
	var total uint64
	for _, v := range w.Proc.VMAs() {
		total += v.Len
	}
	if total == 0 {
		total = 1
	}
	steps := (total + uint64(s.cfg.StepPages) - 1) / uint64(s.cfg.StepPages)
	iv := s.cfg.Period / simclock.Duration(steps)
	if iv < simclock.Millisecond {
		iv = simclock.Millisecond
	}
	return iv
}

func (s *Set) start(w *Walker) {
	var total uint64
	for _, v := range w.Proc.VMAs() {
		total += v.Len
	}
	if total == 0 {
		return
	}
	// One keyed ticker per process: walker events round-trip through
	// checkpoints (a single policy owns at most one Set, so PID-derived
	// keys cannot collide on a clock).
	w.ticker = s.k.Clock().EveryKey(fmt.Sprintf("scan/%d", w.Proc.PID), s.interval(w), func(now simclock.Time) {
		s.step(w, now)
	})
}

// SetState is the serializable dynamic state of a scanner set: the pass
// period (SetPeriod may have changed it) and each walker's position, in
// Walkers order (one walker per process, in Processes() order — stable
// across a rebuild from the same configuration).
type SetState struct {
	Period  simclock.Duration `json:"period"`
	Walkers []WalkerState     `json:"walkers"`
}

// WalkerState is one walker's position within its process address space.
type WalkerState struct {
	VMA    int    `json:"vma"`
	Next   uint64 `json:"next"`
	Passes int    `json:"passes"`
}

// State captures the set's dynamic state.
func (s *Set) State() SetState {
	st := SetState{Period: s.cfg.Period}
	for _, w := range s.Walkers {
		st.Walkers = append(st.Walkers, WalkerState{VMA: w.vma, Next: w.next, Passes: w.Passes})
	}
	return st
}

// SetState overlays a captured state onto a freshly Started set. It does
// not touch the tickers: their pending events are restored by the clock
// snapshot, which also re-applies any Reset period.
func (s *Set) SetState(st SetState) error {
	if len(st.Walkers) != len(s.Walkers) {
		return fmt.Errorf("scan: restore: %d walkers recorded, %d built", len(st.Walkers), len(s.Walkers))
	}
	for i, w := range s.Walkers {
		// step indexes the process's VMAs by the walker's position; an
		// empty address space keeps position 0, which step never reads.
		if v := st.Walkers[i].VMA; v < 0 || v >= max(len(w.Proc.VMAs()), 1) {
			return fmt.Errorf("scan: restore: walker %d at VMA %d, process has %d", i, v, len(w.Proc.VMAs()))
		}
	}
	if st.Period > 0 {
		s.cfg.Period = st.Period
	}
	for i, w := range s.Walkers {
		w.vma = st.Walkers[i].VMA
		w.next = st.Walkers[i].Next
		w.Passes = st.Walkers[i].Passes
	}
	return nil
}

// step visits the next StepPages pages of the walker's process. When the
// walk wraps past the end of the address space it continues into the next
// pass within the same tick, so a full pass takes exactly Period.
func (s *Set) step(w *Walker, now simclock.Time) {
	vmas := w.Proc.VMAs()
	if len(vmas) == 0 {
		return
	}
	remaining := s.cfg.StepPages
	wraps := 0
	for remaining > 0 {
		v := vmas[w.vma]
		if w.next >= v.End() {
			w.vma = (w.vma + 1) % len(vmas)
			w.next = vmas[w.vma].Start
			if w.vma == 0 {
				w.Passes++
				wraps++
				if wraps == 2 {
					return // empty address space guard
				}
			}
			continue
		}
		pg := w.Proc.PageAt(w.next)
		if pg == nil {
			w.next++
			remaining--
			continue
		}
		s.visit(pg, now)
		w.next += uint64(pg.Size)
		remaining -= int(pg.Size)
	}
	// The budget ran out exactly at the end of the space: close the pass
	// now so Passes reflects completed coverage.
	if w.vma == len(vmas)-1 && w.next >= vmas[w.vma].End() {
		w.vma = 0
		w.next = vmas[0].Start
		w.Passes++
	}
}
