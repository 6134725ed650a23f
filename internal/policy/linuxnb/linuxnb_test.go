package linuxnb_test

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy/linuxnb"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
)

// TestPromotesHotRegion: NUMA balancing must move the (initially slow)
// hot region into the fast tier over a few scan periods.
func TestPromotesHotRegion(t *testing.T) {
	w := policytest.Build(t, linuxnb.New(), 3000, 500, engine.BasePages)
	m := w.Run(300 * simclock.Second)
	if m.Faults == 0 {
		t.Fatal("no hint faults: scanning is not running")
	}
	if m.Promotions == 0 {
		t.Fatal("no promotions")
	}
	if res := w.HotResidency(); res < 0.5 {
		t.Fatalf("hot residency %.2f after 5 scan periods", res)
	}
}

// TestMRUHasNoFrequencyFilter: the MRU rule promotes warm-but-accessed
// pages too — promotions must exceed the hot-set size (churn), the §2.1
// weakness Chrono fixes.
func TestMRUHasNoFrequencyFilter(t *testing.T) {
	w := policytest.Build(t, linuxnb.New(), 3000, 500, engine.BasePages)
	m := w.Run(300 * simclock.Second)
	uniq := w.Engine.UniquePromotedPages()
	if uniq <= 500 {
		t.Fatalf("unique promoted %d; MRU should also promote warm tail pages", uniq)
	}
	_ = m
}
