// Quickstart: build a two-tier memory system, attach Chrono, run a skewed
// workload, and read the results — the minimal end-to-end use of the
// library's public surface.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"chrono/internal/core"
	"chrono/internal/engine"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

func main() {
	// 1. A machine: 64 GB DRAM + 192 GB slow memory (25% fast ratio),
	//    scaled to 256 pages per simulated GB.
	e := engine.New(engine.Config{
		Seed:   1,
		FastGB: 64,
		SlowGB: 192,
	})

	// 2. A process with a 100 GB address space whose access pattern is
	//    hand-rolled here: the first 20% of pages receive 90% of accesses.
	const pages = 100 * 256
	p := vm.NewProcess(1, "demo", pages)
	start := p.VMAs()[0].Start
	for i := uint64(0); i < pages; i++ {
		weight := 1.0
		if i < pages/5 {
			weight = 36 // hot head: 20% of pages, 90% of accesses
		}
		p.SetPattern(start+i, weight, 0.7) // 70% reads
	}
	e.AddProcess(p, 4) // four worker threads
	if err := e.MapAll(engine.BasePages); err != nil {
		log.Fatal(err)
	}

	// 3. Chrono with its Table 2 defaults (DCSC fully automatic tuning).
	ch := core.New(core.Options{})
	e.AttachPolicy(ch)

	// 4. Run ten virtual minutes.
	m := e.Run(10 * simclock.Minute)

	// 5. Results.
	fmt.Printf("throughput:      %.1f Mop/s\n", m.Throughput())
	fmt.Printf("fast-tier hits:  %.1f %%\n", m.FMAR()*100)
	fmt.Printf("avg latency:     %.0f ns (p99 %.0f ns)\n",
		m.Lat.Mean(), m.Lat.Percentile(0.99))
	fmt.Printf("promotions:      %d pages, demotions: %d pages\n",
		m.Promotions, m.Demotions)
	fmt.Printf("CIT threshold:   %.0f ms (auto-tuned from %v)\n",
		ch.ThresholdMS(), core.InitialThresholdMS)
	fmt.Printf("rate limit:      %.0f MB/s (auto-tuned)\n", ch.RateLimitMBps())
	fmt.Printf("hot head is %.1f%% resident in DRAM\n", headResidency(e, p, pages/5))
}

// headResidency reports how much of the hot head ended up in the fast tier.
func headResidency(e *engine.Engine, p *vm.Process, headPages uint64) float64 {
	start := p.VMAs()[0].Start
	var fast int
	for i := uint64(0); i < headPages; i++ {
		if pg := p.PageAt(start + i); pg != nil && pg.Tier == 0 {
			fast++
		}
	}
	return float64(fast) / float64(headPages) * 100
}
