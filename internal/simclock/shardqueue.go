package simclock

// ShardQueue is a plain-value min-heap of timestamped fault entries: the
// engine's pending hint-fault timers. It deliberately does not reuse the
// Clock's event machinery: entries are plain data (no callbacks, no
// shared free list) and the ordering is fully determined by the entry
// itself. Entries order by (At, ID, Seq) — timestamp, then owning page,
// then the page's fault-sequence number — so pop order is identical no
// matter how entries were pushed.
//
// A page holds at most one live timer, so Push REPLACES any queued entry of
// the same ID: a newer (ID, Seq) supersedes the older one, which is
// necessarily stale (its Seq predates the page's current fault sequence).
// This keeps the heap bounded by live pages instead of accumulating stale
// timers — the equivalent of the Clock's eager Cancel. A dense position
// index from page ID to heap slot makes replacement O(log n).
//
// The queue is allocation-free in steady state: the backing arrays are
// retained across pops and reused by later pushes.

// ShardEntry is one pending page fault.
type ShardEntry struct {
	At  Time   `json:"at"`
	ID  int64  `json:"id"`
	Seq uint64 `json:"seq"`
}

// Before reports whether e orders ahead of o under the canonical
// (At, ID, Seq) replay order.
func (e ShardEntry) Before(o ShardEntry) bool { return entryLess(e, o) }

func entryLess(a, b ShardEntry) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return a.Seq < b.Seq
}

// ShardQueue is a 4-ary implicit min-heap of ShardEntry values with
// per-page replacement. The zero value is an empty, ready-to-use queue.
type ShardQueue struct {
	heap []ShardEntry
	// pos maps ID -> heap index + 1 (0 = absent).
	pos []int32
}

// Len returns the number of pending entries.
func (q *ShardQueue) Len() int { return len(q.heap) }

// set places e at heap index i and updates the position index.
func (q *ShardQueue) set(i int, e ShardEntry) {
	q.heap[i] = e
	q.pos[e.ID] = int32(i + 1)
}

// Push inserts an entry, replacing any queued entry of the same page ID
// (the older entry is stale by construction; see the type comment).
//
//chrono:hotpath
func (q *ShardQueue) Push(e ShardEntry) {
	if int64(len(q.pos)) <= e.ID {
		n := e.ID + 1
		if c := 2 * int64(len(q.pos)); c > n {
			n = c
		}
		//chrono:allow hotalloc position index doubles, amortized allocation-free
		grown := make([]int32, n)
		copy(grown, q.pos)
		q.pos = grown
	}
	if p := q.pos[e.ID]; p != 0 {
		i := int(p - 1)
		q.heap[i] = e
		q.siftUp(i)
		q.siftDown(i)
		return
	}
	q.heap = append(q.heap, e)
	q.pos[e.ID] = int32(len(q.heap)) // provisional; siftUp fixes it
	q.siftUp(len(q.heap) - 1)
}

// PopLE removes and returns the earliest entry if its timestamp is <= limit.
// The second return is false when the queue is empty or the minimum lies
// beyond limit.
//
//chrono:hotpath
func (q *ShardQueue) PopLE(limit Time) (ShardEntry, bool) {
	h := q.heap
	if len(h) == 0 || h[0].At > limit {
		return ShardEntry{}, false
	}
	min := h[0]
	q.pos[min.ID] = 0
	n := len(h) - 1
	last := h[n]
	q.heap = h[:n]
	if n > 0 {
		q.set(0, last)
		q.siftDown(0)
	}
	return min, true
}

func (q *ShardQueue) siftUp(i int) {
	h := q.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(e, h[parent]) {
			break
		}
		q.set(i, h[parent])
		i = parent
	}
	q.set(i, e)
}

func (q *ShardQueue) siftDown(i int) {
	h := q.heap
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if entryLess(h[j], h[best]) {
				best = j
			}
		}
		if !entryLess(h[best], e) {
			break
		}
		q.set(i, h[best])
		i = best
	}
	q.set(i, e)
}

// Reset empties the queue, retaining the backing arrays.
func (q *ShardQueue) Reset() {
	for _, e := range q.heap {
		q.pos[e.ID] = 0
	}
	q.heap = q.heap[:0]
}

// AppendEntries appends every pending entry to dst in unspecified order and
// returns the extended slice. Checkpointing sorts the entries into the
// canonical (At, ID, Seq) order, so heap order is irrelevant here.
func (q *ShardQueue) AppendEntries(dst []ShardEntry) []ShardEntry {
	return append(dst, q.heap...)
}
