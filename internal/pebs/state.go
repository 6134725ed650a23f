package pebs

import "fmt"

// SamplerState is the serializable dynamic state of a Sampler: the
// per-page counters (sparse), the retained-sample total, and the
// cumulative drop counter. The RNG the sampler draws from is the engine's
// policy stream, restored separately; RatePerSec/LossRate are
// configuration the owning policy re-establishes before overlay.
type SamplerState struct {
	Len     int      `json:"len"`
	Idx     []int64  `json:"idx,omitempty"`
	Count   []uint32 `json:"count,omitempty"`
	Total   uint64   `json:"total"`
	Dropped uint64   `json:"dropped,omitempty"`
}

// State captures the sampler's counters.
func (s *Sampler) State() SamplerState {
	st := SamplerState{Len: len(s.counters), Total: s.total, Dropped: s.dropped}
	for i, c := range s.counters {
		if c != 0 {
			st.Idx = append(st.Idx, int64(i))
			st.Count = append(st.Count, c)
		}
	}
	return st
}

// SetState overlays captured counters, replacing the current content. A
// state whose columns differ in length, or whose index falls outside
// [0, Len), is rejected and leaves the sampler untouched.
func (s *Sampler) SetState(st SamplerState) error {
	if st.Len < 0 {
		return fmt.Errorf("pebs: restore: negative counter length %d", st.Len)
	}
	if len(st.Idx) != len(st.Count) {
		return fmt.Errorf("pebs: restore: %d indices, %d counts", len(st.Idx), len(st.Count))
	}
	for _, id := range st.Idx {
		if id < 0 || id >= int64(st.Len) {
			return fmt.Errorf("pebs: restore: counter index %d outside [0, %d)", id, st.Len)
		}
	}
	s.Grow(st.Len)
	clear(s.counters)
	for k, id := range st.Idx {
		s.counters[id] = st.Count[k]
	}
	s.total = st.Total
	s.dropped = st.Dropped
	return nil
}
