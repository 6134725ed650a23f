package core

// Chrono's checkpoint support: serialization of every mutable field that
// influences future decisions — the live threshold/rate-limit pair, the
// candidate filter, the promotion queue and its retry counts, the DCSC
// heat maps and outstanding probes, the tuning histories, and the
// Ticking-scan walker positions. Configuration is rebuilt by New/Attach
// and not serialized, except for the three knobs exposed as writable
// sysctls besides the threshold and the rate limit.

import (
	"encoding/json"
	"fmt"
	"sort"

	"chrono/internal/mem"
	"chrono/internal/policy/scan"
	"chrono/internal/simclock"
	"chrono/internal/xarray"
)

// candState is one candidate-filter entry (XArray key order).
type candState struct {
	ID      int64             `json:"id"`
	Passes  int               `json:"passes"`
	LastCIT simclock.Duration `json:"last_cit"`
	Stamp   simclock.Time     `json:"stamp"`
}

// retryState is one promotion-queue retry counter.
type retryState struct {
	ID int64 `json:"id"`
	N  int8  `json:"n"`
}

// probeState is one outstanding DCSC probe victim.
type probeState struct {
	ID    int64         `json:"id"`
	Stamp simclock.Time `json:"stamp"`
}

// seriesState is a parameter-history series (Figure 10b/c).
type seriesState struct {
	T []float64 `json:"t,omitempty"`
	V []float64 `json:"v,omitempty"`
}

// checkpointState is Chrono's serializable dynamic state.
type checkpointState struct {
	ThresholdMS  float64 `json:"threshold_ms"`
	RateLimitBps float64 `json:"rate_limit_bps"`

	// The other sysctl-writable knobs.
	DeltaStep       float64 `json:"delta_step"`
	PVictim         float64 `json:"p_victim"`
	ThrashThreshold float64 `json:"thrash_threshold"`

	Cands []candState `json:"cands,omitempty"`
	Queue []int64     `json:"queue,omitempty"`

	EnqueuedBytes  float64 `json:"enqueued_bytes"`
	EnqueueRateEMA float64 `json:"enqueue_rate_ema"`
	PromotedPages  int64   `json:"promoted_pages"`
	ThrashEvents   int64   `json:"thrash_events"`

	Retries []retryState `json:"retries,omitempty"`

	Heat    [mem.NumTiers][]float64 `json:"heat"`
	Samples [mem.NumTiers]float64   `json:"samples"`
	Probes  []probeState            `json:"probes,omitempty"`

	ThresholdHist seriesState `json:"threshold_hist"`
	RateLimitHist seriesState `json:"rate_limit_hist"`

	Enqueued     int64 `json:"enqueued"`
	Promoted     int64 `json:"promoted"`
	Demoted      int64 `json:"demoted"`
	ThrashTotal  int64 `json:"thrash_total"`
	DCSCSamples  int64 `json:"dcsc_samples"`
	FilteredOut  int64 `json:"filtered_out"`
	QueueDropped int64 `json:"queue_dropped"`
	RetryDropped int64 `json:"retry_dropped"`

	Scan scan.SetState `json:"scan"`
}

// CheckpointState implements policy.Policy.
func (c *Chrono) CheckpointState() (any, error) {
	st := checkpointState{
		ThresholdMS:     c.thresholdMS,
		RateLimitBps:    c.rateLimitBps,
		DeltaStep:       c.deltaStep,
		PVictim:         c.pVictim,
		ThrashThreshold: c.thrashThreshold,
		Queue:           append([]int64(nil), c.queue...),
		EnqueuedBytes:   c.enqueuedBytes,
		EnqueueRateEMA:  c.enqueueRateEMA,
		PromotedPages:   c.promotedPages,
		ThrashEvents:    c.thrashEvents,
		Samples:         c.samples,
		ThresholdHist: seriesState{
			T: append([]float64(nil), c.ThresholdHist.T...),
			V: append([]float64(nil), c.ThresholdHist.V...),
		},
		RateLimitHist: seriesState{
			T: append([]float64(nil), c.RateLimitHist.T...),
			V: append([]float64(nil), c.RateLimitHist.V...),
		},
		Enqueued:     c.Enqueued,
		Promoted:     c.Promoted,
		Demoted:      c.Demoted,
		ThrashTotal:  c.ThrashTotal,
		DCSCSamples:  c.DCSCSamples,
		FilteredOut:  c.FilteredOut,
		QueueDropped: c.QueueDropped,
		RetryDropped: c.RetryDropped,
		Scan:         c.scan.State(),
	}
	for t := range c.heat {
		st.Heat[t] = append([]float64(nil), c.heat[t]...)
	}
	// XArray.Range visits keys in ascending order — deterministic bytes.
	c.cands.Range(func(key uint64, v any) bool {
		e := v.(*candidate)
		st.Cands = append(st.Cands, candState{
			ID: int64(key), Passes: e.passes, LastCIT: e.lastCIT, Stamp: e.stamp,
		})
		return true
	})
	// The retries map is keyed-access-only in steady state; serialization
	// is the one place it is enumerated, sorted by page ID.
	//chrono:ordered-irrelevant keys are sorted immediately below
	for id, n := range c.retries {
		st.Retries = append(st.Retries, retryState{ID: id, N: n})
	}
	sort.Slice(st.Retries, func(i, j int) bool { return st.Retries[i].ID < st.Retries[j].ID })
	for _, pr := range c.probes {
		st.Probes = append(st.Probes, probeState{ID: pr.id, Stamp: pr.stamp})
	}
	return st, nil
}

// RestoreCheckpoint implements policy.Policy: overlay a captured
// state onto a freshly Attached Chrono built with the same Options. A
// knob outside its sysctl range is an error.
func (c *Chrono) RestoreCheckpoint(data []byte) error {
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	for t := range st.Heat {
		if len(st.Heat[t]) != BBuckets {
			return fmt.Errorf("core: restore: heat map tier %d has %d buckets, want %d",
				t, len(st.Heat[t]), BBuckets)
		}
	}
	c.thresholdMS = st.ThresholdMS
	c.rateLimitBps = st.RateLimitBps
	c.deltaStep = st.DeltaStep
	c.pVictim = st.PVictim
	c.thrashThreshold = st.ThrashThreshold
	// The knobs face the same range checks as a sysctl write.
	for _, kb := range c.knobs() {
		if err := kb.check(*kb.v); err != nil {
			return fmt.Errorf("core: restore: %s=%v: %w", kb.path, *kb.v, err)
		}
	}
	c.queue = append(c.queue[:0], st.Queue...)
	c.enqueuedBytes = st.EnqueuedBytes
	c.enqueueRateEMA = st.EnqueueRateEMA
	c.promotedPages = st.PromotedPages
	c.thrashEvents = st.ThrashEvents
	c.samples = st.Samples
	for t := range c.heat {
		copy(c.heat[t], st.Heat[t])
	}
	c.cands = &xarray.XArray{}
	for _, cs := range st.Cands {
		c.cands.Store(uint64(cs.ID), &candidate{passes: cs.Passes, lastCIT: cs.LastCIT, stamp: cs.Stamp})
	}
	c.retries = make(map[int64]int8, len(st.Retries))
	for _, r := range st.Retries {
		c.retries[r.ID] = r.N
	}
	c.probes = c.probes[:0]
	for _, pr := range st.Probes {
		c.probes = append(c.probes, probe{id: pr.ID, stamp: pr.Stamp})
	}
	c.ThresholdHist.T = append([]float64(nil), st.ThresholdHist.T...)
	c.ThresholdHist.V = append([]float64(nil), st.ThresholdHist.V...)
	c.RateLimitHist.T = append([]float64(nil), st.RateLimitHist.T...)
	c.RateLimitHist.V = append([]float64(nil), st.RateLimitHist.V...)
	c.Enqueued = st.Enqueued
	c.Promoted = st.Promoted
	c.Demoted = st.Demoted
	c.ThrashTotal = st.ThrashTotal
	c.DCSCSamples = st.DCSCSamples
	c.FilteredOut = st.FilteredOut
	c.QueueDropped = st.QueueDropped
	c.RetryDropped = st.RetryDropped
	return c.scan.SetState(st.Scan)
}
