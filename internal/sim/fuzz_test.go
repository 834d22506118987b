package sim

import (
	"testing"
)

// FuzzEngineOps drives the engine with a byte-coded operation sequence and
// checks every observable — firing order, clock, pending and fired counts,
// handle liveness — against a deliberately naive reference: an unordered
// slice scanned for the minimum (time, seq) key. The byte-derived times
// are coarse (multiples of 0.5) so timestamp collisions are common and
// FIFO tie-breaking is constantly exercised across slab-slot reuse.
// After every operation the engine's internal heap invariant (inline
// keys, back-pointers, heap order, free list) is checked as well.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 3, 0, 1, 0, 3, 0})
	f.Add([]byte{0, 4, 0, 4, 0, 4, 2, 1, 8, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 0, 3, 0, 0, 1, 1, 2, 2, 3, 3})
	// Equal-time ties: five events at now and three at now+1 fire in
	// schedule order, interleaved with a cancel in the middle.
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 1, 1, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0})
	// Reschedule to the same time: with two handles, arg 4 picks handle
	// 0 and moves it to t=2, its own time, where it now ties behind
	// handle 1 (a fresh sequence number).
	f.Add([]byte{0, 4, 0, 4, 2, 4, 3, 0, 3, 0})
	// Reschedule earlier: among nine handles, arg 2 picks handle 2 and
	// moves it from t=21, a leaf, to t=1, where it ties behind handle 1.
	f.Add([]byte{0, 40, 0, 2, 0, 42, 0, 43, 0, 44, 0, 45, 0, 46, 0, 47, 0, 48, 2, 2, 3, 0, 3, 0, 3, 0, 3, 0})
	// Reschedule later: the root (handle 0 at t=1) moves behind every
	// filler, then again after a step moved the clock.
	f.Add([]byte{0, 2, 0, 4, 0, 6, 0, 8, 0, 10, 0, 12, 0, 14, 0, 16, 2, 80, 3, 0, 2, 88, 3, 0, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var en Engine

		// Reference state: one item per scheduled event, keyed exactly
		// like the engine orders its heap.
		type item struct {
			time  float64
			seq   uint64
			id    int
			state int // 0 pending, 1 fired, 2 cancelled
		}
		var items []*item
		var seq uint64 // mirrors every sequence number the engine consumes
		now := 0.0

		var gotFired []int
		var handles []Event
		var refs []*item

		refStep := func() (int, float64, bool) {
			var best *item
			for _, it := range items {
				if it.state != 0 {
					continue
				}
				if best == nil || it.time < best.time ||
					(it.time == best.time && it.seq < best.seq) {
					best = it
				}
			}
			if best == nil {
				return 0, 0, false
			}
			best.state = 1
			return best.id, best.time, true
		}
		pendingRef := func() int {
			n := 0
			for _, it := range items {
				if it.state == 0 {
					n++
				}
			}
			return n
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%4, data[i+1]
			switch op {
			case 0: // schedule at now + arg/2
				tt := now + float64(arg)*0.5
				id := len(items) + 1
				it := &item{time: tt, seq: seq, id: id}
				seq++
				items = append(items, it)
				refs = append(refs, it)
				handles = append(handles, en.Schedule(tt, func() {
					gotFired = append(gotFired, id)
				}))
			case 1: // cancel handle arg (possibly stale: must be a no-op)
				if len(handles) == 0 {
					continue
				}
				k := int(arg) % len(handles)
				handles[k].Cancel()
				if refs[k].state == 0 {
					refs[k].state = 2
				}
			case 2: // reschedule handle arg if still pending
				if len(handles) == 0 {
					continue
				}
				k := int(arg) % len(handles)
				if !handles[k].Active() {
					continue
				}
				tt := now + float64(arg)*0.5
				handles[k] = en.Reschedule(handles[k], tt)
				refs[k].time = tt
				refs[k].seq = seq
				seq++
			case 3: // step
				id, tt, ok := refStep()
				stepped := en.Step()
				if stepped != ok {
					t.Fatalf("op %d: Step()=%v, reference %v", i, stepped, ok)
				}
				if !ok {
					continue
				}
				now = tt
				if en.Now() != tt {
					t.Fatalf("op %d: clock %v, reference %v", i, en.Now(), tt)
				}
				if n := len(gotFired); n == 0 || gotFired[n-1] != id {
					t.Fatalf("op %d: fired %v, reference wants %d next", i, gotFired, id)
				}
			}
			if err := heapInvariant(&en); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if en.Pending() != pendingRef() {
				t.Fatalf("op %d: pending %d, reference %d", i, en.Pending(), pendingRef())
			}
			for k := range handles {
				if handles[k].Active() != (refs[k].state == 0) {
					t.Fatalf("op %d: handle %d Active()=%v, reference state %d",
						i, k, handles[k].Active(), refs[k].state)
				}
			}
		}

		// Drain and verify the complete firing order.
		for {
			id, _, ok := refStep()
			if !en.Step() {
				if ok {
					t.Fatalf("engine drained early: reference still has event %d", id)
				}
				break
			}
			if !ok {
				t.Fatal("engine fired an event the reference does not have")
			}
			if gotFired[len(gotFired)-1] != id {
				t.Fatalf("drain: fired %d, reference wants %d", gotFired[len(gotFired)-1], id)
			}
		}
	})
}
