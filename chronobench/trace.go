package main

// In-memory span recorder for the traced run. Spans are recorded only
// from this package, around calls into the layers' public functions and
// from the engine's two host-side hooks (Clock.SetAfterStep and
// Engine.EpochHook); nothing inside the simulator is instrumented.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"chrono/internal/engine"
	"chrono/internal/simclock"
)

// span is one timed interval. Times are nanoseconds since the tracer's
// origin; Parent 0 marks a root. Job is the shared ID of the policy run,
// sweep cell, or daemon job the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer records spans for one goroutine. A nil *tracer records nothing,
// so untraced code paths share the traced ones without a branch per call.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now()} //chrono:wallclock span origin is host-side
}

// fork returns an empty tracer on the same time base, for a worker
// goroutine; adopt merges it back.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{origin: t.origin}
}

func (t *tracer) now() int64 {
	return int64(time.Since(t.origin)) //chrono:wallclock span timestamps are host-side
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return 0
	}
	return t.record(name, job, parent, t.now(), -1)
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.End = t.now()
	return s.seconds()
}

// record appends a finished (or, with end -1, open) span.
func (t *tracer) record(name, job string, parent int, start, end int64) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: start, End: end})
	return len(t.spans)
}

// adopt appends a forked tracer's spans, re-numbering them and hanging
// its roots under parent.
func (t *tracer) adopt(c *tracer, parent int) {
	if t == nil || c == nil {
		return
	}
	off := len(t.spans)
	for _, s := range c.spans {
		s.ID += off
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// durations returns the durations in seconds of every span named name.
func (t *tracer) durations(names ...string) []float64 {
	var out []float64
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, s.seconds())
			}
		}
	}
	return out
}

// write stores the spans as JSON under path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it covered by the union of its children (clipped to the span).
func selfTimes(spans []span) map[string]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start-covered(s, kids[s.ID])) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// engineTrace records an engine's step and epoch intervals under a run
// span. A step is the host time between two Clock.SetAfterStep calls
// (the fault drain plus one master event); the step in which
// Engine.EpochHook fired is named engine.epoch_tick. Epoch spans run
// from the end of one epoch-tick step to the end of the next, so every
// step nests inside exactly one epoch.
type engineTrace struct {
	t          *tracer
	epoch      int // the open epoch span
	stepStart  int64
	epochFired bool
}

// hookEngine installs the step and epoch hooks on e, plus afterStep (may
// be nil) to run after each recorded step with the open epoch span as the
// parent for any spans it records: the replay's pause logic lives there.
// Call it right before Run or ResumeRun with the run span's ID; close
// ends the open epoch.
func (t *tracer) hookEngine(e *engine.Engine, job string, run int, afterStep func(parent int)) *engineTrace {
	h := &engineTrace{t: t}
	if t == nil {
		if afterStep != nil {
			e.Clock().SetAfterStep(func() { afterStep(0) })
		}
		return h
	}
	h.stepStart = t.now()
	h.epoch = t.record("engine.epoch", job, run, h.stepStart, -1)
	e.EpochHook = func(simclock.Time) { h.epochFired = true }
	e.Clock().SetAfterStep(func() {
		now := t.now()
		name := "simclock.step"
		if h.epochFired {
			name = "engine.epoch_tick"
		}
		t.record(name, job, h.epoch, h.stepStart, now)
		if h.epochFired {
			t.spans[h.epoch-1].End = now
			h.epoch = t.record("engine.epoch", job, run, now, -1)
			h.epochFired = false
		}
		h.stepStart = now
		if afterStep != nil {
			afterStep(h.epoch)
			h.stepStart = t.now()
		}
	})
	return h
}

// close ends the open epoch span and detaches the hooks.
func (h *engineTrace) close(e *engine.Engine) {
	e.Clock().SetAfterStep(nil)
	e.EpochHook = nil
	if h.t != nil {
		h.t.spans[h.epoch-1].End = h.t.now()
	}
}
