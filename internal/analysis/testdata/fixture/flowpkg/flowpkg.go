// Package flowpkg seeds one finding for each v4 flow analyzer: an
// allocation reachable from a //chrono:hotpath root (hotalloc) and a
// wall-clock reading laundered through a helper into checkpointed state
// (detflow).
package flowpkg

import "time"

type eng struct {
	Seen int64 //chrono:state
}

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

// record launders the wall clock into checkpointed state.
func (e *eng) record() {
	e.Seen = stamp()
}
