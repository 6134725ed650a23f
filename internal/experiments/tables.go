package experiments

import (
	"chrono/internal/core"
	"chrono/internal/report"
)

// This file renders the paper's static tables.

// Table1 renders the solution-characteristics comparison (paper Table 1).
func Table1() *report.Table {
	t := report.NewTable("Table 1: characteristics of recent tiered memory systems",
		"Solution", "Type", "Migration Criterion", "Effective Frequency Scale", "Default Page Size")
	t.AddRow("Auto-Tiering", "System-wide", "Page-fault counters", "0~1 access/min", "Base page")
	t.AddRow("Multi-Clock", "System-wide", "Multi-level LRU lists", "0~1 access/min", "Base page")
	t.AddRow("Telescope", "System-wide", "Tree-structured PTE bits", "0~5 access/sec", "Base page")
	t.AddRow("TPP", "System-wide", "Page-fault + LRU lists", "0~2 access/min", "Base page")
	t.AddRow("Memtis", "Process level", "PEBS stats + Ratio config", "0~10 access/sec", "Huge page")
	t.AddRow("FlexMem", "Process level", "PEBS stats + Page fault", "0~10 access/sec", "Huge page")
	t.AddRow("Chrono [Ours]", "System-wide", "Dynamic CIT stats", "0~1000 access/sec", "Base page")
	return t
}

// Table2 renders Chrono's parameter defaults (paper Table 2), pulled from
// core's constants so the table cannot drift from the code.
func Table2() *report.Table {
	t := report.NewTable("Table 2: Chrono parameter defaults",
		"Name", "Default", "Description")
	t.AddRow("Scan step", "256 MB", "marked page set size of a Ticking-scan event (scaled at sim resolution)")
	t.AddRow("Scan period", "60 sec", "period for Ticking-scan to loop over the address space")
	t.AddRow("P-victim", core.DefaultPVictim, "ratio of pages sampled in the DCSC scheme (paper: 0.003% at 256 GB; see DESIGN.md)")
	t.AddRow("B-bucket", core.BBuckets, "number of CIT levels in DCSC stats")
	t.AddRow("delta-step", core.DefaultDeltaStep, "adaption step for CIT threshold adjustment")
	t.AddRow("CIT threshold", core.InitialThresholdMS, "initial value in ms; auto-tuned")
	t.AddRow("Rate limit", core.DefaultRateLimitMBps, "initial value in MB/s; auto-tuned")
	return t
}
