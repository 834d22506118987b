// Package sim provides the discrete-event simulation substrate: an event
// engine with a cancellable future-event list, and server models
// (processor sharing, quantum round-robin, FCFS) for the computers in the
// paper's network.
//
// The paper's simulator (§4.1) models computers that apply "preemptive
// round-robin processor scheduling"; the analysis assumes the processor
// sharing (PS) limit. PSServer implements exact PS in O(log n) per event
// using virtual-time bookkeeping; RRServer implements quantum-based
// round-robin for quantum-sensitivity ablations; FCFSServer is provided as
// a contrast discipline.
//
// The engine stores its pending events in a slab: a flat []eventSlot
// indexed by a 4-ary min-heap whose nodes carry each event's (time, seq)
// ordering key inline beside its slot index. Sifting compares the
// contiguous heap nodes and touches the slab only to update the moved
// nodes' back-pointers; it moves a hole instead of swapping at every
// level. Freed slots are kept on a free list for reuse, so steady-state
// Schedule/Cancel/Reschedule perform no heap allocations (see
// TestScheduleCancelZeroAlloc). Event handles are small values carrying
// a generation number that detects use-after-free: acting on a handle
// whose slot has been recycled is either a safe no-op (Cancel) or a
// generation-mismatch panic (Reschedule).
package sim

import (
	"fmt"
	"math"
)

// eventSlot is one slab entry: the scheduled callback, its (time, seq)
// key (mirrored inline in the slot's heap node) and the heap
// back-pointer. Slots are recycled through the engine's free list; gen
// increments at every release so stale Event handles are detectable.
type eventSlot struct {
	time float64
	seq  uint64
	fn   func()
	pos  int32 // index in Engine.heap, -1 when free
	gen  uint32
}

// Event is a generation-checked handle to a scheduled callback. The zero
// value is an inert handle: Cancel is a no-op and Active reports false.
// Handles are small values — copy them freely. A handle goes stale when
// its event fires or is cancelled; the engine recycles the slot and any
// later use of the stale handle is detected by generation mismatch.
type Event struct {
	en   *Engine
	slot int32 // slab index + 1; 0 marks the zero handle
	gen  uint32
	time float64
}

// Time returns the simulation time at which the event was scheduled to
// fire. It remains readable after the event fires or is cancelled.
func (e Event) Time() float64 { return e.time }

// Active reports whether the event is still pending: scheduled, not yet
// fired, not cancelled.
func (e Event) Active() bool {
	if e.slot == 0 {
		return false
	}
	sl := &e.en.events[e.slot-1]
	return sl.gen == e.gen && sl.pos >= 0
}

// Cancel removes the event from the queue so it never fires. Cancelling
// the zero handle, an already-fired or an already-cancelled event is a
// no-op (the generation check makes stale handles inert even after the
// slot has been recycled by a newer event).
func (e Event) Cancel() {
	if e.slot == 0 {
		return
	}
	en := e.en
	sl := &en.events[e.slot-1]
	if sl.gen != e.gen || sl.pos < 0 {
		return // fired, cancelled, or slot recycled
	}
	en.heapRemove(sl.pos)
	en.release(e.slot - 1)
}

// Engine is a sequential discrete-event engine: a clock plus a future
// event list ordered by (time, schedule order). The zero value is ready to
// use. Engines are not safe for concurrent use; run one engine per
// goroutine (replications parallelize across engines).
type Engine struct {
	now    float64
	seq    uint64
	events []eventSlot // slab; heap and free hold indices into it
	heap   []heapNode  // 4-ary min-heap on the inline (time, seq) keys
	free   []int32     // released slots available for reuse
	fired  uint64
	popped uint64
}

// Now returns the current simulation time.
func (en *Engine) Now() float64 { return en.now }

// Fired returns the number of events executed so far.
func (en *Engine) Fired() uint64 { return en.fired }

// Pending returns the number of events in the queue. Cancelled events are
// removed eagerly and do not count.
func (en *Engine) Pending() int { return len(en.heap) }

// alloc returns a free slab slot, growing the slab when the free list is
// empty. The returned index is NOT on the heap yet.
func (en *Engine) alloc() int32 {
	if n := len(en.free); n > 0 {
		idx := en.free[n-1]
		en.free = en.free[:n-1]
		return idx
	}
	en.events = append(en.events, eventSlot{pos: -1})
	return int32(len(en.events) - 1)
}

// release recycles slot idx: the generation bump invalidates outstanding
// handles, and dropping fn releases the callback's closure to the GC.
func (en *Engine) release(idx int32) {
	sl := &en.events[idx]
	sl.fn = nil
	sl.pos = -1
	sl.gen++
	en.free = append(en.free, idx)
}

// Schedule registers fn to run at absolute time t, which must not precede
// the current time. It returns the Event handle for cancellation.
func (en *Engine) Schedule(t float64, fn func()) Event {
	if t < en.now {
		panic(fmt.Sprintf("sim: scheduling into the past (t=%v, now=%v)", t, en.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling at NaN time")
	}
	idx := en.alloc()
	sl := &en.events[idx]
	sl.time = t
	sl.seq = en.seq
	sl.fn = fn
	en.seq++
	en.heap = append(en.heap, heapNode{})
	en.up(int32(len(en.heap)-1), heapNode{time: t, seq: sl.seq, slot: idx})
	return Event{en: en, slot: idx + 1, gen: sl.gen, time: t}
}

// ScheduleAfter registers fn to run delay seconds from now.
func (en *Engine) ScheduleAfter(delay float64, fn func()) Event {
	return en.Schedule(en.now+delay, fn)
}

// Reschedule moves a pending event to absolute time t, keeping its
// callback. Like a Cancel followed by a Schedule it consumes one sequence
// number, so FIFO tie-breaking among equal timestamps is identical to the
// cancel-and-reschedule idiom it replaces — but without releasing and
// re-acquiring the slot. It panics if the handle is stale (the event
// already fired or was cancelled): rescheduling a dead event would
// silently act on whatever reused its slot.
func (en *Engine) Reschedule(e Event, t float64) Event {
	if e.slot == 0 {
		panic("sim: Reschedule of a zero event handle")
	}
	sl := &en.events[e.slot-1]
	if sl.gen != e.gen || sl.pos < 0 {
		panic(fmt.Sprintf("sim: Reschedule of a dead event handle (generation mismatch: handle gen %d, slot gen %d)", e.gen, sl.gen))
	}
	if t < en.now {
		panic(fmt.Sprintf("sim: rescheduling into the past (t=%v, now=%v)", t, en.now))
	}
	if math.IsNaN(t) {
		panic("sim: rescheduling at NaN time")
	}
	sl.time = t
	sl.seq = en.seq
	en.seq++
	// The new (time, seq) may order either way relative to the old key;
	// restore heap order from the event's current position.
	en.fix(sl.pos, heapNode{time: t, seq: sl.seq, slot: e.slot - 1})
	e.time = t
	return e
}

// Step fires the next event. It returns false if the queue is empty.
func (en *Engine) Step() bool {
	if len(en.heap) == 0 {
		return false
	}
	top := en.heap[0]
	idx := top.slot
	en.now = top.time
	fn := en.events[idx].fn
	// Pop: the last node refills the root's hole and sifts down.
	last := len(en.heap) - 1
	nd := en.heap[last]
	en.heap = en.heap[:last]
	if last > 0 {
		en.down(0, nd)
	}
	// Release before the callback: the slot is reusable by anything fn
	// schedules, and the handle held by fn's owner is already stale.
	en.release(idx)
	en.popped++
	en.fired++
	fn()
	return true
}

// RunUntil fires events in order until the clock would pass the horizon or
// the queue empties. Events scheduled exactly at the horizon still fire.
// The clock finishes at min(horizon, last event time); callers that need
// the clock parked exactly at the horizon can call AdvanceTo.
func (en *Engine) RunUntil(horizon float64) {
	for len(en.heap) > 0 {
		if en.heap[0].time > horizon {
			return
		}
		en.Step()
	}
}

// AdvanceTo moves the clock forward to t without firing events. It panics
// if an event is pending before t, or if t is in the past.
func (en *Engine) AdvanceTo(t float64) {
	if t < en.now {
		panic(fmt.Sprintf("sim: AdvanceTo into the past (t=%v, now=%v)", t, en.now))
	}
	if len(en.heap) > 0 && en.heap[0].time < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip event at %v", t, en.heap[0].time))
	}
	en.now = t
}

// heapNode is one entry of the future-event heap: the event's ordering
// key stored inline beside its slab index, so sifting compares
// contiguous heap memory instead of chasing each node into the slab.
type heapNode struct {
	time float64
	seq  uint64
	slot int32
}

// before orders heap nodes by time, then schedule order (FIFO among
// ties). Sequence numbers are unique, so the order is total.
func (a *heapNode) before(b *heapNode) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// The pending-event set is a 4-ary implicit heap of heapNodes. A wider
// node costs more comparisons per level but halves the depth and
// touches fewer cache lines than the classic binary heap — the standard
// trade for DES future-event lists, where Schedule (sift-up) dominates
// and most events fire near the front. Both sifts move a hole rather
// than swapping at every level: each displaced node is written once,
// the sifted node once at the end.

// heapRemove deletes the node at heap position i, refilling the hole
// with the last node.
func (en *Engine) heapRemove(i int32) {
	last := int32(len(en.heap) - 1)
	nd := en.heap[last]
	en.heap = en.heap[:last]
	if i < last {
		en.fix(i, nd)
	}
}

// fix places nd into the hole at position i, sifting it whichever way
// restores heap order.
func (en *Engine) fix(i int32, nd heapNode) {
	if i > 0 && nd.before(&en.heap[(i-1)/4]) {
		en.up(i, nd)
	} else {
		en.down(i, nd)
	}
}

// up moves the hole at position i toward the root while nd precedes
// the hole's parent, then stores nd there.
func (en *Engine) up(i int32, nd heapNode) {
	h := en.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !nd.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		en.events[h[i].slot].pos = i
		i = parent
	}
	h[i] = nd
	en.events[nd.slot].pos = i
}

// down moves the hole at position i toward the leaves while its
// smallest child precedes nd, then stores nd there.
func (en *Engine) down(i int32, nd heapNode) {
	h := en.heap
	n := int32(len(h))
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[small]) {
				small = c
			}
		}
		if !h[small].before(&nd) {
			break
		}
		h[i] = h[small]
		en.events[h[i].slot].pos = i
		i = small
	}
	h[i] = nd
	en.events[nd.slot].pos = i
}
