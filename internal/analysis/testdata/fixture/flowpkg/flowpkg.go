// Package flowpkg seeds a finding for the flow layer's analyzer: an
// allocation reachable from a //chrono:hotpath root through a static
// call (hotalloc). It also reads the wall clock (detclock).
package flowpkg

import "time"

type eng struct{}

//chrono:hotpath
func (e *eng) hot(id int64) {
	e.grow()
}

func (e *eng) grow() {
	scratch := make([]int64, 4)
	_ = scratch
}

func stamp() int64 {
	return time.Now().UnixNano()
}
