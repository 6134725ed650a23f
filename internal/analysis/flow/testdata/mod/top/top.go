// Package top is the upper layer of the flow-test module: it exercises
// cross-package summaries (taint through util, state sinks through
// util.Store) and hot-path reachability.
package top

import "flowmod/util"

type eng struct {
	store *util.Store
}

type queue struct {
	pending []int64
}

// enqueue appends in place: no fresh allocation site.
func enqueue(q *queue, id int64) {
	q.pending = append(q.pending, id)
}

// stamp launders a wall-clock reading through two calls; its summary must
// still carry the taint (return taint: wall-clock, via util).
func stamp() int64 {
	return util.PassThrough(util.Wall())
}

// push forwards v into checkpointed state through util.Store.Add
// (param→state bit 1).
func push(e *eng, v float64) {
	e.store.Add(v)
}

// hotRoot is a hot-path root; helper is hot by reachability.
//
//chrono:hotpath
func (e *eng) hotRoot(id int64) {
	helper(e, id)
}

func helper(e *eng, id int64) {
	scratch := make([]int64, 8)
	_ = scratch
}
