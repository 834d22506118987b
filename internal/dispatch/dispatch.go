// Package dispatch implements job dispatching strategies — the second of
// the paper's two optimization techniques (§3). A Dispatcher splits the
// incoming job stream into per-computer substreams in proportion to a
// workload allocation vector α, deciding online which computer receives
// each arriving job.
//
// Three strategies are provided:
//
//   - Random (§3.1): send each job to computer i with probability α_i.
//   - RoundRobin (§3.2, Algorithm 2): the paper's smoothed weighted
//     round-robin. It equalizes the number of system arrivals between
//     successive jobs sent to the same computer, which smooths each
//     computer's arrival substream without measuring inter-arrival times.
//   - CyclicWRR: the classic cyclic weighted round-robin (as found in
//     traditional load balancers), included as an ablation baseline; it
//     sends bursts of consecutive jobs to the same computer when weights
//     are uneven.
//
// The Deviation helpers implement the paper's workload allocation
// deviation metric (footnote 4): Σ_i (α_i − α'_i)² over an observation
// interval, used in Figure 2 to compare strategies.
package dispatch

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"heterosched/internal/rng"
)

// ErrBadFractions is returned when a fraction vector is not a probability
// vector.
var ErrBadFractions = errors.New("dispatch: fractions must be non-negative and sum to 1")

// Dispatcher assigns arriving jobs to computers. Implementations are not
// safe for concurrent use; the simulator owns one per scheduler.
type Dispatcher interface {
	// Next returns the index of the computer that receives the next
	// arriving job.
	Next() int
	// N returns the number of computers.
	N() int
	// Name identifies the strategy ("RAN", "RR", ...).
	Name() string
}

// checkFractions validates α and returns a defensive copy, appended to
// dst[:0]; dst is left unchanged when α is invalid.
func checkFractions(dst, fractions []float64) ([]float64, error) {
	if len(fractions) == 0 {
		return nil, fmt.Errorf("%w: empty vector", ErrBadFractions)
	}
	sum := 0.0
	for i, f := range fractions {
		if f < 0 || math.IsNaN(f) {
			return nil, fmt.Errorf("%w: fraction[%d] = %v", ErrBadFractions, i, f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("%w: sum = %v", ErrBadFractions, sum)
	}
	return append(dst[:0], fractions...), nil
}

// Random dispatches each job independently at random with probabilities α
// (§3.1). Selection uses the alias-free inverse-CDF walk over the
// cumulative vector, O(n) worst case but cache-friendly for the small n of
// the paper's systems.
type Random struct {
	fr  []float64
	cum []float64
	st  *rng.Stream

	// maskedCum replaces cum while an up-set mask is active (SetUp);
	// lastUp is the highest selectable index, the rounding fallback.
	maskedCum []float64
	lastUp    int
}

// NewRandom returns a random dispatcher over the given fractions using the
// supplied stream.
func NewRandom(fractions []float64, st *rng.Stream) (*Random, error) {
	fr, err := checkFractions(nil, fractions)
	if err != nil {
		return nil, err
	}
	cum := make([]float64, len(fr))
	run := 0.0
	for i, f := range fr {
		run += f
		cum[i] = run
	}
	cum[len(cum)-1] = 1 // absorb rounding
	return &Random{fr: fr, cum: cum, st: st}, nil
}

func (r *Random) Name() string { return "RAN" }
func (r *Random) N() int       { return len(r.cum) }

func (r *Random) Next() int {
	cum := r.cum
	if r.maskedCum != nil {
		cum = r.maskedCum
	}
	u := r.st.Float64()
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	if r.maskedCum != nil {
		return r.lastUp
	}
	return len(cum) - 1
}

// RoundRobin is the paper's Algorithm 2: round-robin based job
// dispatching generalized to unequal fractions.
//
// Each computer i tracks:
//
//	assign — the number of jobs sent to it so far,
//	next   — the expected number of further system arrivals before its
//	         next assignment.
//
// Every arriving job goes to the computer with minimum next (ties broken
// by the smaller normalized assignment (assign+1)/α_i); the winner's next
// is increased by 1/α_i, and next is decremented by 1 for every computer
// that has already received at least one job. The next fields start at the
// guard value 1 so lightly weighted computers receive their first jobs
// spread out over the first cycle rather than in a clump.
type RoundRobin struct {
	fractions []float64
	assign    []int64
	next      []float64

	// up and eff support failure masking (SetUp): eff holds the
	// fractions renormalized over the up computers (eff == fractions
	// when no mask is active), and down computers are frozen — never
	// selected, and their next counters stop decrementing so a repaired
	// computer rejoins the rotation without a burst.
	up  []bool
	eff []float64
	// upBuf and effBuf back up and eff while a mask is active, so
	// re-masking allocates nothing.
	upBuf  []bool
	effBuf []float64
}

// NewRoundRobin returns a smoothed round-robin dispatcher over the given
// fractions (Algorithm 2 step 1 initialization).
func NewRoundRobin(fractions []float64) (*RoundRobin, error) {
	rr := &RoundRobin{}
	if err := rr.Reset(fractions); err != nil {
		return nil, err
	}
	return rr, nil
}

// Reset re-initializes the dispatcher over new fractions, exactly as
// NewRoundRobin would, reusing its arrays: the counters restart and the
// mask is cleared. Invalid fractions leave the dispatcher unchanged.
func (rr *RoundRobin) Reset(fractions []float64) error {
	fr, err := checkFractions(rr.fractions, fractions)
	if err != nil {
		return err
	}
	n := len(fr)
	rr.fractions = fr
	rr.assign = slices.Grow(rr.assign[:0], n)[:n]
	rr.next = slices.Grow(rr.next[:0], n)[:n]
	clear(rr.assign)
	for i := range rr.next {
		rr.next[i] = 1 // guard value (step 1.b)
	}
	rr.up, rr.eff = nil, rr.fractions
	return nil
}

// isUp reports whether computer i is selectable (no mask means all up).
func (rr *RoundRobin) isUp(i int) bool { return rr.up == nil || rr.up[i] }

func (rr *RoundRobin) Name() string { return "RR" }
func (rr *RoundRobin) N() int       { return len(rr.fractions) }

func (rr *RoundRobin) Next() int {
	// Steps 2.b–2.c: select the computer with minimum next, breaking ties
	// by the smaller normalized assignment count. Down computers are
	// skipped and their counters frozen.
	sel := -1
	minNext := math.Inf(1)
	norAssign := -1.0
	for i, f := range rr.eff {
		if f == 0 || !rr.isUp(i) {
			continue // step 2.c.1: never select zero-fraction computers
		}
		switch {
		case sel == -1 || minNext > rr.next[i]:
			minNext = rr.next[i]
			norAssign = float64(rr.assign[i]+1) / f
			sel = i
		case minNext == rr.next[i] && norAssign > float64(rr.assign[i]+1)/f:
			norAssign = float64(rr.assign[i]+1) / f
			sel = i
		}
	}
	if sel < 0 {
		panic("dispatch: all fractions zero") // impossible: Σα = 1 over the up-set
	}
	// Step 2.d: a computer's first selection resets its guard value.
	if rr.assign[sel] == 0 {
		rr.next[sel] = 0
	}
	// Steps 2.e–2.f: schedule its next turn 1/α ahead; count the job.
	rr.next[sel] += 1 / rr.eff[sel]
	rr.assign[sel]++
	// Step 2.h: one system arrival has elapsed for every started computer.
	for i := range rr.next {
		if rr.assign[i] != 0 && rr.isUp(i) {
			rr.next[i]--
		}
	}
	return sel
}

// Assigned returns the number of jobs dispatched so far to computer i.
func (rr *RoundRobin) Assigned(i int) int64 { return rr.assign[i] }

// CyclicWRR is the classic cyclic weighted round-robin: weights are
// converted to integer quotas over a cycle and each computer receives its
// whole quota consecutively before the pointer advances. It deliberately
// lacks Algorithm 2's interleaving and is included as a baseline to
// quantify the smoothing benefit.
type CyclicWRR struct {
	quota []int64 // per-cycle quota
	sent  []int64 // sent in current cycle
	ptr   int
	name  string

	up      []bool // availability mask (nil = all up)
	upQuota int64  // Σ quota over the up computers
}

// NewCyclicWRR builds a cyclic WRR dispatcher whose integer quotas
// approximate fractions over a cycle of the given length (e.g. 100).
func NewCyclicWRR(fractions []float64, cycle int) (*CyclicWRR, error) {
	fr, err := checkFractions(nil, fractions)
	if err != nil {
		return nil, err
	}
	if cycle <= 0 {
		return nil, fmt.Errorf("dispatch: cycle must be positive, got %d", cycle)
	}
	// Largest-remainder apportionment of the cycle among computers.
	quota := make([]int64, len(fr))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(fr))
	assigned := int64(0)
	for i, f := range fr {
		exact := f * float64(cycle)
		quota[i] = int64(math.Floor(exact))
		assigned += quota[i]
		rems[i] = rem{i, exact - math.Floor(exact)}
	}
	for int64(cycle)-assigned > 0 {
		best := 0
		for j := 1; j < len(rems); j++ {
			if rems[j].frac > rems[best].frac {
				best = j
			}
		}
		quota[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return &CyclicWRR{quota: quota, sent: make([]int64, len(fr))}, nil
}

func (c *CyclicWRR) Name() string { return "cyclicWRR" }
func (c *CyclicWRR) N() int       { return len(c.quota) }

func (c *CyclicWRR) Next() int {
	if c.up != nil {
		return c.nextMasked()
	}
	for tries := 0; tries < len(c.quota)+1; tries++ {
		if c.sent[c.ptr] < c.quota[c.ptr] {
			c.sent[c.ptr]++
			return c.ptr
		}
		c.ptr = (c.ptr + 1) % len(c.quota)
		if c.ptr == 0 {
			allDone := true
			for i := range c.sent {
				if c.sent[i] < c.quota[i] {
					allDone = false
					break
				}
			}
			if allDone {
				for i := range c.sent {
					c.sent[i] = 0
				}
			}
		}
	}
	// Unreachable: some quota is always positive because Σα=1 and
	// cycle ≥ 1.
	panic("dispatch: cyclic WRR found no eligible computer")
}

// Deviation computes the paper's workload allocation deviation
// (footnote 4): Σ_i (expected_i − actual_i)², where expected is the target
// fraction vector and actual is the observed fraction of jobs per computer
// in an interval. counts holds per-computer job counts for the interval.
// An interval with no arrivals has zero deviation by convention.
func Deviation(expected []float64, counts []int64) (float64, error) {
	if len(expected) != len(counts) {
		return 0, fmt.Errorf("dispatch: deviation length mismatch (%d vs %d)", len(expected), len(counts))
	}
	total := int64(0)
	for _, c := range counts {
		if c < 0 {
			return 0, fmt.Errorf("dispatch: negative count %d", c)
		}
		total += c
	}
	if total == 0 {
		return 0, nil
	}
	dev := 0.0
	for i, c := range counts {
		d := expected[i] - float64(c)/float64(total)
		dev += d * d
	}
	return dev, nil
}

// IntervalDeviation observes a dispatcher's decisions over fixed-length
// time intervals and records the deviation of each interval, reproducing
// the measurement of Figure 2.
type IntervalDeviation struct {
	expected []float64
	length   float64
	counts   []int64
	boundary float64
	devs     []float64
}

// NewIntervalDeviation creates a tracker with the given expected fractions
// and interval length (seconds).
func NewIntervalDeviation(expected []float64, length float64) (*IntervalDeviation, error) {
	fr, err := checkFractions(nil, expected)
	if err != nil {
		return nil, err
	}
	if length <= 0 {
		return nil, fmt.Errorf("dispatch: interval length must be positive, got %v", length)
	}
	return &IntervalDeviation{
		expected: fr,
		length:   length,
		counts:   make([]int64, len(fr)),
		boundary: length,
	}, nil
}

// Observe records that a job arrived at the given time and was dispatched
// to computer target. Times must be non-decreasing.
func (iv *IntervalDeviation) Observe(t float64, target int) {
	for t >= iv.boundary {
		iv.closeInterval()
	}
	iv.counts[target]++
}

func (iv *IntervalDeviation) closeInterval() {
	dev, err := Deviation(iv.expected, iv.counts)
	if err != nil {
		panic(err) // lengths are fixed at construction; unreachable
	}
	iv.devs = append(iv.devs, dev)
	for i := range iv.counts {
		iv.counts[i] = 0
	}
	iv.boundary += iv.length
}

// Flush closes every interval whose end lies at or before time t, so the
// final observation window is included even if no arrival lands past it.
func (iv *IntervalDeviation) Flush(t float64) {
	for iv.boundary <= t {
		iv.closeInterval()
	}
}

// Deviations returns the deviations of all completed intervals.
func (iv *IntervalDeviation) Deviations() []float64 {
	out := make([]float64, len(iv.devs))
	copy(out, iv.devs)
	return out
}
