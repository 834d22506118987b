package main

import (
	"math"
	"time"
)

// The host-time metrics are scaled to a reference host speed measured in
// the same run. Shared machines drift by tens of percent over minutes;
// a fixed workload timed between cells drifts with them, so the ratio
// of the two is far steadier than either. The reference is the
// benchmark's own frozen code, so no change to the program can move it.

// refNominalNs is the reference kernel's cost per operation on the
// reference host the scaled metrics are expressed for.
const refNominalNs = 70.0

// refOps is the number of operations one reference measurement times
// (a few milliseconds).
const refOps = 100_000

// refKernel times the reference workload and returns its nanoseconds per
// operation: a hold model on a 64-entry binary min-heap of event times,
// each operation popping the earliest time and pushing it back advanced
// by an exponential increment from a xorshift generator.
func refKernel() float64 {
	var heap [64]float64
	x := uint64(88172645463325252)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return -math.Log(float64(x>>11)/(1<<53) + 0x1p-54)
	}
	for i := range heap {
		heap[i] = next()
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap[:], i)
	}
	start := time.Now()
	for i := 0; i < refOps; i++ {
		heap[0] += next()
		siftDown(heap[:], 0)
	}
	ns := float64(time.Since(start).Nanoseconds()) / refOps
	if heap[0] < 0 { // keeps the loop observable
		return math.Inf(1)
	}
	return ns
}

func siftDown(h []float64, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
