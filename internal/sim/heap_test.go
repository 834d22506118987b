package sim

import (
	"fmt"
	"math"
	"testing"

	"heterosched/internal/rng"
)

// heapInvariant checks the engine's internal consistency: every heap
// node's inline key equals its slot's (time, seq), every pos
// back-pointer names the node that holds it, no node precedes its
// parent, and every slot off the heap (free or fired) has pos -1 and
// sits on the free list exactly once. It returns the first violation.
func heapInvariant(en *Engine) error {
	onHeap := 0
	for i := range en.heap {
		nd := &en.heap[i]
		if nd.slot < 0 || int(nd.slot) >= len(en.events) {
			return fmt.Errorf("heap[%d]: slot %d outside the slab (len %d)", i, nd.slot, len(en.events))
		}
		sl := &en.events[nd.slot]
		if sl.pos != int32(i) {
			return fmt.Errorf("heap[%d]: slot %d back-pointer is %d", i, nd.slot, sl.pos)
		}
		if sl.time != nd.time || sl.seq != nd.seq {
			return fmt.Errorf("heap[%d]: inline key (%v, %d) != slot %d key (%v, %d)",
				i, nd.time, nd.seq, nd.slot, sl.time, sl.seq)
		}
		if sl.fn == nil {
			return fmt.Errorf("heap[%d]: slot %d has no callback", i, nd.slot)
		}
		if i > 0 && nd.before(&en.heap[(i-1)/4]) {
			return fmt.Errorf("heap[%d] (%v, %d) precedes its parent heap[%d]",
				i, nd.time, nd.seq, (i-1)/4)
		}
		onHeap++
	}
	onFree := make([]bool, len(en.events))
	for _, idx := range en.free {
		if onFree[idx] {
			return fmt.Errorf("slot %d is on the free list twice", idx)
		}
		onFree[idx] = true
	}
	for idx := range en.events {
		sl := &en.events[idx]
		switch {
		case sl.pos >= 0 && onFree[idx]:
			return fmt.Errorf("slot %d is both on the heap (pos %d) and free", idx, sl.pos)
		case sl.pos < 0 && !onFree[idx]:
			return fmt.Errorf("slot %d is neither on the heap nor free", idx)
		case sl.pos >= int32(len(en.heap)):
			return fmt.Errorf("slot %d back-pointer %d past the heap (len %d)", idx, sl.pos, len(en.heap))
		case sl.pos < 0 && sl.fn != nil:
			return fmt.Errorf("free slot %d still holds its callback", idx)
		}
	}
	if onHeap+len(en.free) != len(en.events) {
		return fmt.Errorf("%d on heap + %d free != %d slots", onHeap, len(en.free), len(en.events))
	}
	return nil
}

// TestEngineLockstepLargeBacklog drives the engine and the pre-slab
// reference engine through 10⁵ random Schedule/Cancel/Reschedule/Step
// operations over a backlog held near 600 pending events — the depth of
// the n=500 sharded-JIQ workload, where sifts run four to five levels —
// and requires the same firing order and clocks throughout.
func TestEngineLockstepLargeBacklog(t *testing.T) {
	const backlog = 600
	st := rng.New(5)
	var neu Engine
	var ref refEngine
	var logNew, logRef []int
	type pair struct {
		n Event
		r *refEvent
	}
	var handles []pair
	label := 0
	schedule := func(tt float64) {
		label++
		l := label
		handles = append(handles, pair{
			n: neu.Schedule(tt, func() { logNew = append(logNew, l) }),
			r: ref.Schedule(tt, func() { logRef = append(logRef, l) }),
		})
	}
	// pick favours recent handles, which are mostly live, but also
	// reaches stale ones so Cancel's no-op path runs.
	pick := func() int {
		if n := len(handles); n > 1000 && st.Float64() < 0.7 {
			return n - 1 - st.Intn(1000)
		}
		return st.Intn(len(handles))
	}
	// Coarse times force timestamp ties, stressing FIFO order.
	when := func() float64 { return neu.Now() + float64(st.Intn(200))*0.25 }

	ops := stressN(100000)
	for op := 0; op < ops; op++ {
		pSchedule := 0.2
		if neu.Pending() < backlog {
			pSchedule = 0.5
		}
		switch r := st.Float64(); {
		case r < pSchedule:
			schedule(when())
		case r < pSchedule+0.1 && len(handles) > 0:
			k := pick()
			handles[k].n.Cancel()
			handles[k].r.Cancel()
		case r < pSchedule+0.25 && len(handles) > 0:
			k := pick()
			if handles[k].n.Active() {
				tt := when()
				handles[k].n = neu.Reschedule(handles[k].n, tt)
				handles[k].r = ref.Reschedule(handles[k].r, tt)
			}
		default:
			if neu.Step() != ref.Step() {
				t.Fatalf("op %d: engines disagree on whether an event is pending", op)
			}
			if neu.Now() != ref.Now() {
				t.Fatalf("op %d: clocks diverged: %v vs %v", op, neu.Now(), ref.Now())
			}
			if len(logNew) != len(logRef) || (len(logNew) > 0 && logNew[len(logNew)-1] != logRef[len(logRef)-1]) {
				t.Fatalf("op %d: firing order diverged after %d events", op, len(logRef))
			}
		}
		if op%997 == 0 {
			if err := heapInvariant(&neu); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if p := neu.Pending(); p < backlog/2 {
		t.Fatalf("backlog fell to %d pending; the workload no longer exercises a deep heap", p)
	}
	neu.RunUntil(math.Inf(1))
	ref.RunUntil(math.Inf(1))
	if neu.Fired() != ref.Fired() || len(logNew) != len(logRef) {
		t.Fatalf("fired %d (%d logged) vs reference %d (%d logged)",
			neu.Fired(), len(logNew), ref.Fired(), len(logRef))
	}
	for i := range logNew {
		if logNew[i] != logRef[i] {
			t.Fatalf("firing order diverged at %d: %d vs %d", i, logNew[i], logRef[i])
		}
	}
	if err := heapInvariant(&neu); err != nil {
		t.Fatal(err)
	}
}

// TestHeapInvariantDetectsCorruption makes sure the checker the fuzz
// target relies on actually fails on each kind of damage.
func TestHeapInvariantDetectsCorruption(t *testing.T) {
	build := func() *Engine {
		en := &Engine{}
		for i := 0; i < 20; i++ {
			en.Schedule(float64(i%5), nop)
		}
		en.Step()
		return en
	}
	if err := heapInvariant(build()); err != nil {
		t.Fatalf("intact engine: %v", err)
	}
	damage := map[string]func(en *Engine){
		"stale inline key": func(en *Engine) { en.heap[3].time += 1 },
		"stale back-pointer": func(en *Engine) {
			en.events[en.heap[2].slot].pos = 5
		},
		"order":          func(en *Engine) { en.heap[0], en.heap[1] = en.heap[1], en.heap[0] },
		"free slot lost": func(en *Engine) { en.free = en.free[:0] },
	}
	for name, f := range damage {
		en := build()
		f(en)
		if heapInvariant(en) == nil {
			t.Errorf("%s: checker accepted a corrupted heap", name)
		}
	}
}
