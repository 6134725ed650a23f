package core

import (
	"math"
	"strconv"
	"testing"

	"chrono/internal/mem"
)

// FuzzChronoSysctl writes an arbitrary key and value through an attached
// Chrono's sysctl table, as `chronoctl -op reconfigure -set key=value`
// does. No write may panic, and every accepted write to one of Chrono's
// knobs must read back finite and inside the knob's range. The handlers
// that consume the knobs then run once on the written value. The seed
// corpus in testdata/fuzz/FuzzChronoSysctl holds the NaN, infinite, huge
// and negative-zero values the knobs once accepted.
func FuzzChronoSysctl(f *testing.F) {
	f.Add("chrono/p_victim", "0.01")
	f.Add("chrono/delta_step", "0.5")
	f.Add("chrono/cit_threshold_ms", "250")
	f.Add("chrono/p_victim_x", "1")
	f.Fuzz(func(t *testing.T, key, value string) {
		c, k := attach(t, quietOptions())
		for i := 0; i < 15; i++ {
			k.addPage(mem.SlowTier, 1)
		}
		if err := k.Sysctl().Set(key, value); err != nil {
			return
		}
		got, err := k.Sysctl().Get(key)
		if err != nil {
			t.Fatalf("%s accepted %q but does not read back: %v", key, value, err)
		}
		v, err := strconv.ParseFloat(got, 64)
		if err != nil {
			t.Fatalf("%s=%q reads back %q: %v", key, value, got, err)
		}
		var ok bool
		switch key {
		case "chrono/cit_threshold_ms", "chrono/rate_limit_bps", "chrono/thrash_threshold":
			ok = v > 0 && v < math.Inf(1)
		case "chrono/delta_step":
			ok = v > 0 && v < 1
		case "chrono/p_victim":
			ok = v > 0 && v <= 1
		default:
			t.Fatalf("unexpected key %q accepted", key)
		}
		if !ok {
			t.Fatalf("%s=%q accepted and reads back %v, outside its range", key, value, v)
		}
		now := k.clock.Now()
		c.statScan(now)
		c.semiAutoTick(now)
		c.dcscTune(now)
		c.drainQueue(now)
		c.demotionTick(now)
	})
}
