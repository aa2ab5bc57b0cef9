package sim

import "time"

// The event queue is a concrete (monomorphic) 4-ary min-heap over small
// value entries, paired with a pool of event payload records addressed
// by index. Splitting the two keeps the parts the heap moves and
// compares — (time, sequence, index) — in 24 contiguous bytes, so sift
// operations never chase pointers, and lets fired or canceled events be
// recycled through a free list instead of becoming garbage. A 4-ary
// layout halves the tree depth of a binary heap, which matters because
// the simulation's queue is popped once per event executed.
//
// Determinism: ordering is exactly (at, seq), identical to the previous
// container/heap implementation, so event execution order — and
// therefore every golden file — is unchanged.

// eventKind discriminates the payload of a pooled event record. The
// non-func kinds are closure-free fast paths for the dominant event
// shapes; they let the steady-state loop run without allocating.
type eventKind uint8

const (
	// evFunc runs an arbitrary callback.
	evFunc eventKind = iota
	// evResume resumes a parked task (Sleep, Signal wake, Resource
	// grant, machine spawn) with a direct Machine.Resume call.
	evResume
	// evHook invokes an EventHook (e.g. netsim message delivery).
	evHook
	// evSignalTimeout expires a WaitTimeout.
	evSignalTimeout
	// evResTimeout expires an AcquireTimeout.
	evResTimeout
)

// eventRec is a pooled event payload. Records live in Env.pool and are
// addressed by heap-entry index; gen increments on every recycle so
// stale Timer handles can detect that their event is gone. freed marks
// records currently on the free list, which lets the pool-shrink pass
// trim trailing idle records after a burst drains.
type eventRec struct {
	kind     eventKind
	canceled bool
	freed    bool
	gen      uint32
	fn       func()
	task     *Task
	hook     EventHook
}

// heapEnt is one entry of the 4-ary min-heap: the comparison key plus
// the index of the payload record in Env.pool.
type heapEnt struct {
	at  time.Duration
	seq int64
	idx int32
}

func entLess(a, b heapEnt) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// minEventPool is the record count below which the pool is never
// trimmed; it keeps the shrink pass entirely off the steady-state path
// of small models and micro-benchmarks.
const minEventPool = 64

// allocEvent returns a free pool index, reusing recycled records first.
// Free-list entries can be stale (their record was trimmed away by
// shrinkPool); those are discarded lazily here.
func (e *Env) allocEvent() int32 {
	for n := len(e.free); n > 0; n = len(e.free) {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		if int(idx) < len(e.pool) {
			e.pool[idx].freed = false
			return idx
		}
	}
	e.pool = append(e.pool, eventRec{gen: e.genFloor})
	return int32(len(e.pool) - 1)
}

// recycle returns a record to the free list, dropping payload
// references and invalidating outstanding Timer handles. When the
// recycled record leaves the pool with an idle tail, the pool is
// trimmed so a drained burst does not hold its peak footprint forever.
func (e *Env) recycle(idx int32) {
	rec := &e.pool[idx]
	rec.gen++
	rec.fn = nil
	rec.task = nil
	rec.hook = nil
	rec.canceled = false
	rec.freed = true
	e.free = append(e.free, idx)
	if len(e.pool) > minEventPool && e.pool[len(e.pool)-1].freed {
		e.shrinkPool()
	}
}

// shrinkPool drops trailing idle records from the event pool. Records
// in the middle of the pool cannot move (live heap entries and Timer
// handles address them by index), so the policy is: trim the freed
// tail, lazily discard the free-list entries that pointed at it, and
// when a trim reclaims a meaningful chunk also give the backing arrays
// back to the allocator. Each call removes at least one record, so the
// total work is amortized by pool growth; genFloor keeps the gen
// counters of future records at that index ahead of any Timer handle
// issued before the trim.
func (e *Env) shrinkPool() {
	n := len(e.pool)
	for n > minEventPool && e.pool[n-1].freed {
		if g := e.pool[n-1].gen + 1; g > e.genFloor {
			e.genFloor = g
		}
		n--
	}
	trimmed := len(e.pool) - n
	if trimmed == 0 {
		return
	}
	e.pool = e.pool[:n]
	if trimmed < minEventPool {
		// Small trim: leave the stale free-list entries for allocEvent
		// to discard, keeping this call O(trimmed).
		return
	}
	w := 0
	for _, idx := range e.free {
		if int(idx) < n {
			e.free[w] = idx
			w++
		}
	}
	e.free = e.free[:w]
	if cap(e.free) >= 4*minEventPool && 4*len(e.free) < cap(e.free) {
		e.free = append(make([]int32, 0, 2*len(e.free)+minEventPool), e.free...)
	}
	if cap(e.pool) >= 4*minEventPool && 4*len(e.pool) < cap(e.pool) {
		e.pool = append(make([]eventRec, 0, 2*len(e.pool)+minEventPool), e.pool...)
	}
	if cap(e.events) >= 4*minEventPool && 4*len(e.events) < cap(e.events) {
		e.events = append(make([]heapEnt, 0, 2*len(e.events)+minEventPool), e.events...)
	}
}

func (e *Env) heapPush(ent heapEnt) {
	e.events = append(e.events, ent)
	// Sift up.
	h := e.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !entLess(ent, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ent
}

func (e *Env) heapPop() heapEnt {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	e.events = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return top
}

// siftDown places ent, notionally at the root, into its final position.
func (e *Env) siftDown(ent heapEnt) {
	h := e.events
	n := len(h)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if entLess(h[c], h[best]) {
				best = c
			}
		}
		if !entLess(h[best], ent) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ent
}
