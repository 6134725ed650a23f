package simclock_test

import (
	"fmt"

	"chrono/internal/simclock"
)

// A clock dispatches scheduled callbacks in virtual-time order; tickers
// re-arm themselves, which is how scans and tuning loops are paced. Every
// event carries a checkpoint key, so the clock can always be snapshotted.
func Example() {
	c := simclock.New()

	c.AtKey(2*simclock.Second, "example/once", 0, 0, func(now simclock.Time) {
		fmt.Println("one-shot at", now)
	})
	tk := c.EveryKey("example/tick", simclock.Second, func(now simclock.Time) {
		fmt.Println("tick at", now)
	})

	c.RunUntil(3 * simclock.Second)
	tk.Cancel()

	// Output:
	// tick at 1.000s
	// one-shot at 2.000s
	// tick at 2.000s
	// tick at 3.000s
}
