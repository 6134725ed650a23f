package policy_test

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// The engine is the one real Kernel; every policy is written against this
// interface, so a signature drift must fail compilation here rather than
// deep inside a policy package.
var _ policy.Kernel = (*engine.Engine)(nil)

// minimal embeds Base and implements only the required methods — the
// intended authoring pattern for simple policies. It protects every page
// shortly after the run starts and counts the resulting hint faults. Its
// fault count is test instrumentation, so its checkpoint state is empty.
type minimal struct {
	policy.Base
	attached bool
	faults   int
}

func (m *minimal) Name() string { return "minimal" }

func (m *minimal) Attach(k policy.Kernel) {
	m.attached = true
	k.Clock().AtKey(simclock.FromSeconds(0.1), "minimal/protect", 0, 0, func(simclock.Time) {
		for _, pg := range k.Pages() {
			if pg != nil {
				k.Protect(pg)
			}
		}
	})
}

func (m *minimal) OnFault(*vm.Page, simclock.Time) { m.faults++ }

func (m *minimal) CheckpointState() (any, error) { return nil, nil }

func (m *minimal) RestoreCheckpoint([]byte) error { return nil }

var _ policy.Policy = (*minimal)(nil)

// TestBaseHooksAreNoOps pins down that Base's optional hooks accept nil
// receivers/arguments without touching them — policies embedding Base
// must be safe to drive before any page state exists.
func TestBaseHooksAreNoOps(t *testing.T) {
	var b policy.Base
	b.OnPageMapped(nil)
	b.OnPageFreed(nil)
	b.OnMigrated(nil, mem.FastTier, mem.SlowTier)
}

// TestMinimalPolicyDrivesThroughEngine attaches the minimal policy to a
// real engine and checks the kernel delivers the lifecycle it promises:
// Attach once after mapping, then fault notifications for protected pages.
func TestMinimalPolicyDrivesThroughEngine(t *testing.T) {
	e := engine.New(engine.Config{Seed: 3, FastGB: 2, SlowGB: 6})
	p := vm.NewProcess(1, "t", 500)
	start := p.VMAs()[0].Start
	for i := uint64(0); i < 500; i++ {
		p.SetPattern(start+i, 1, 1)
	}
	e.AddProcess(p, 1)
	if err := e.MapAll(engine.BasePages); err != nil {
		t.Fatal(err)
	}
	pol := &minimal{}
	e.AttachPolicy(pol)
	if !pol.attached {
		t.Fatal("Attach was not called")
	}
	e.Run(simclock.Second)
	if pol.faults == 0 {
		t.Fatal("no OnFault delivered for protected, accessed pages")
	}
}
