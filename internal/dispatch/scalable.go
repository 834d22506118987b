package dispatch

import (
	"fmt"

	"heterosched/internal/rng"
)

// This file implements the scalable-dispatch family of Gardner et al.
// ("Scalable Load Balancing in the Presence of Heterogeneous Servers"):
// dispatchers that query a little computer state at decision time instead
// of planning a split up front. Three strategies:
//
//   - JSQD — JSQ(d): sample d computers uniformly at random, send the
//     job to the sampled computer with the shortest queue (Mitzenmacher's
//     power-of-d-choices).
//   - BiasedPowerOfD — power-of-d with heterogeneity-aware query biasing:
//     computers are sampled with probability proportional to a weight
//     vector (speeds, or the α of Algorithm 1), so fast computers are
//     probed more often.
//   - JIQ — join-idle-queue: computers report idle tokens; the
//     dispatcher sends each job to a token holder, falling back to
//     power-of-d when the idle list is empty.
//
// Unlike the static strategies these need live queue state, observed
// through a QueueView bound after the simulated computers exist. The
// stateless strategies never touch a QueueView, which is what keeps
// their zero-query path bit-identical.

// QueueView exposes the computer state a scalable dispatcher may query
// at decision time.
type QueueView interface {
	// QueueLen returns the number of jobs currently at computer i
	// (queued plus in service).
	QueueLen(i int) int
}

// MaxSampleWidth bounds d for the power-of-d samplers so the sampling
// scratch can live on the stack. Far above any d of practical interest
// (the whole point of power-of-d is d ≪ n).
const MaxSampleWidth = 64

// StateBound is a Dispatcher that queries computer state and must be
// bound to a QueueView before its first decision.
type StateBound interface {
	Dispatcher
	// Bind installs the queue-state view.
	Bind(view QueueView)
}

// JSQD is JSQ(d): each decision samples d distinct up computers
// uniformly at random and picks the sampled computer with the shortest
// queue. Ties go to the earliest-sampled computer, so the decision is a
// pure function of the sample order and the observed queue lengths.
type JSQD struct {
	n, d int
	st   *rng.Stream
	view QueueView
	up   []bool
	nUp  int
}

// NewJSQD returns a JSQ(d) dispatcher over n computers using the given
// sampling stream.
func NewJSQD(n, d int, st *rng.Stream) (*JSQD, error) {
	if n < 1 {
		return nil, fmt.Errorf("dispatch: jsq(d) needs at least one computer, got %d", n)
	}
	if d < 1 {
		return nil, fmt.Errorf("dispatch: jsq(d) needs d >= 1, got %d", d)
	}
	if d > n {
		return nil, fmt.Errorf("dispatch: jsq(%d) needs at least %d computers, have %d", d, d, n)
	}
	if d > MaxSampleWidth {
		return nil, fmt.Errorf("dispatch: jsq(%d) exceeds the max sample width %d", d, MaxSampleWidth)
	}
	return &JSQD{n: n, d: d, st: st, nUp: n}, nil
}

func (j *JSQD) Name() string { return fmt.Sprintf("jsq(%d)", j.d) }
func (j *JSQD) N() int       { return j.n }

// Bind installs the queue-state view.
func (j *JSQD) Bind(view QueueView) { j.view = view }

// D returns the sample width.
func (j *JSQD) D() int { return j.d }

func (j *JSQD) isUp(i int) bool { return j.up == nil || j.up[i] }

// SetUp installs the availability mask; sampling rejects down computers.
func (j *JSQD) SetUp(up []bool) error {
	if up == nil {
		j.up = nil
		j.nUp = j.n
		return nil
	}
	if err := checkMask(up, j.n); err != nil {
		return err
	}
	j.up = append(j.up[:0], up...)
	j.nUp = 0
	for _, u := range up {
		if u {
			j.nUp++
		}
	}
	return nil
}

// Next samples min(d, #up) distinct up computers and returns the one
// with the shortest queue.
func (j *JSQD) Next() int {
	m := j.d
	if m > j.nUp {
		m = j.nUp
	}
	var sample [64]int
	picked := 0
	for picked < m {
		i := j.st.Intn(j.n)
		if !j.isUp(i) {
			continue
		}
		dup := false
		for _, p := range sample[:picked] {
			if p == i {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		sample[picked] = i
		picked++
	}
	return j.shortest(sample[:picked])
}

// shortest returns the sampled computer with the shortest queue, ties to
// the earliest sample.
func (j *JSQD) shortest(sample []int) int {
	best := sample[0]
	bestLen := j.queueLen(best)
	for _, i := range sample[1:] {
		if l := j.queueLen(i); l < bestLen {
			best, bestLen = i, l
		}
	}
	return best
}

func (j *JSQD) queueLen(i int) int {
	if j.view == nil {
		return 0
	}
	return j.view.QueueLen(i)
}

// BiasedPowerOfD is power-of-d-choices with heterogeneity-aware query
// biasing: computers are sampled with probability proportional to a
// weight vector (typically speeds or Algorithm 1's α), then the job
// joins the sampled computer with the shortest queue. Ties go to the
// heavier-weighted sample, so two equally idle computers resolve toward
// the faster one.
type BiasedPowerOfD struct {
	n, d    int
	st      *rng.Stream
	view    QueueView
	weights []float64
	cum     []float64 // cumulative weights over the current up-set
	up      []bool
	nUp     int
	bias    string // weight-vector mnemonic for Name ("speed", "alpha")
	samples []int64
}

// NewBiasedPowerOfD returns a biased power-of-d dispatcher. weights must
// be non-negative with a positive sum; bias names the weight vector in
// reports.
func NewBiasedPowerOfD(weights []float64, d int, bias string, st *rng.Stream) (*BiasedPowerOfD, error) {
	n := len(weights)
	if n < 1 {
		return nil, fmt.Errorf("dispatch: pod(d) needs at least one computer")
	}
	if d < 1 {
		return nil, fmt.Errorf("dispatch: pod(d) needs d >= 1, got %d", d)
	}
	if d > n {
		return nil, fmt.Errorf("dispatch: pod(%d) needs at least %d computers, have %d", d, d, n)
	}
	if d > MaxSampleWidth {
		return nil, fmt.Errorf("dispatch: pod(%d) exceeds the max sample width %d", d, MaxSampleWidth)
	}
	sum := 0.0
	for i, w := range weights {
		if !(w >= 0) {
			return nil, fmt.Errorf("dispatch: pod(d) weight[%d] = %v must be >= 0", i, w)
		}
		sum += w
	}
	if !(sum > 0) {
		return nil, fmt.Errorf("dispatch: pod(d) weights sum to %v, need > 0", sum)
	}
	b := &BiasedPowerOfD{
		n: n, d: d, st: st, bias: bias,
		weights: append([]float64(nil), weights...),
		nUp:     n,
		samples: make([]int64, n),
	}
	b.rebuildCum()
	return b, nil
}

func (b *BiasedPowerOfD) Name() string {
	if b.bias == "" {
		return fmt.Sprintf("pod(%d)", b.d)
	}
	return fmt.Sprintf("pod(%d):%s", b.d, b.bias)
}
func (b *BiasedPowerOfD) N() int { return b.n }

// Bind installs the queue-state view.
func (b *BiasedPowerOfD) Bind(view QueueView) { b.view = view }

// D returns the sample width.
func (b *BiasedPowerOfD) D() int { return b.d }

// SampleCounts returns how many times each computer has been drawn by
// the biased sampler (raw draws, before de-duplication), the statistic
// whose frequencies converge to the bias weights.
func (b *BiasedPowerOfD) SampleCounts() []int64 { return append([]int64(nil), b.samples...) }

// rebuildCum recomputes the cumulative sampling weights over the up-set.
func (b *BiasedPowerOfD) rebuildCum() {
	w := b.weights
	if b.up != nil {
		w = maskWeights(nil, b.weights, b.up)
	}
	if b.cum == nil {
		b.cum = make([]float64, b.n)
	}
	run := 0.0
	last := 0
	for i, wi := range w {
		run += wi
		b.cum[i] = run
		if wi > 0 {
			last = i
		}
	}
	// Pin the tail to exactly 1 so the inverse-CDF search always lands
	// on a sampleable index (same trick as Random.SetUp).
	for i := last; i < b.n; i++ {
		b.cum[i] = 1
	}
	if b.up == nil {
		// Normalize an unmasked weight vector that doesn't sum to 1.
		total := run
		for i := 0; i < last; i++ {
			b.cum[i] /= total
		}
	}
}

// SetUp installs the availability mask, re-biasing the sampler over the
// surviving computers.
func (b *BiasedPowerOfD) SetUp(up []bool) error {
	if up == nil {
		b.up = nil
		b.nUp = b.n
		b.rebuildCum()
		return nil
	}
	if err := checkMask(up, b.n); err != nil {
		return err
	}
	b.up = append(b.up[:0], up...)
	b.nUp = 0
	for _, u := range up {
		if u {
			b.nUp++
		}
	}
	b.rebuildCum()
	return nil
}

func (b *BiasedPowerOfD) isUp(i int) bool { return b.up == nil || b.up[i] }

// draw samples one computer index from the biased distribution by binary
// search over the cumulative weights.
func (b *BiasedPowerOfD) draw() int {
	u := b.st.Float64()
	lo, hi := 0, b.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if b.cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	b.samples[lo]++
	return lo
}

// Next draws until it holds min(d, #up) distinct up computers with
// positive sampling weight, then returns the one with the shortest
// queue; ties go to the heavier weight, then the earlier draw.
func (b *BiasedPowerOfD) Next() int {
	// The biased distribution may give some up computers zero weight, so
	// the distinct-sample target is the number of samplable computers,
	// capped at d.
	m := 0
	for i := 0; i < b.n; i++ {
		if b.isUp(i) && b.sampleable(i) {
			m++
			if m == b.d {
				break
			}
		}
	}
	var sample [64]int
	picked := 0
	for picked < m {
		i := b.draw()
		if !b.isUp(i) {
			continue
		}
		dup := false
		for _, p := range sample[:picked] {
			if p == i {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		sample[picked] = i
		picked++
	}
	best := sample[0]
	bestLen := b.queueLen(best)
	for _, i := range sample[1:picked] {
		switch l := b.queueLen(i); {
		case l < bestLen:
			best, bestLen = i, l
		case l == bestLen && b.weights[i] > b.weights[best]:
			best = i
		}
	}
	return best
}

// sampleable reports whether computer i has positive probability under
// the current cumulative vector.
func (b *BiasedPowerOfD) sampleable(i int) bool {
	if i == 0 {
		return b.cum[0] > 0
	}
	return b.cum[i] > b.cum[i-1]
}

func (b *BiasedPowerOfD) queueLen(i int) int {
	if b.view == nil {
		return 0
	}
	return b.view.QueueLen(i)
}

// JIQ is join-idle-queue dispatching: computers that go idle report a
// token to the dispatcher, which sends each arriving job to a token
// holder (FIFO) and falls back to the configured dispatcher — typically
// biased power-of-d — when the idle list is empty. Each token is spent
// by one dispatch, so a computer holds at most one token at a time.
type JIQ struct {
	n        int
	fallback Dispatcher
	view     QueueView
	tokens   []int // FIFO of idle computer indices
	head     int
	has      []bool
	up       []bool

	// Lease support (control-plane mode). All nil/zero when unused, so
	// the lease-free path is byte-for-byte the PR 9 behavior: expiry is
	// allocated on the first leased token, now is the injected clock
	// without which expiries are never checked, and the hooks observe
	// token outcomes at pop time.
	expiry    []float64 // per-computer lease expiry; 0 = no lease
	now       func() float64
	onSpend   func(i int, expiry float64)
	onExpire  func(i int, expiry float64)
	onDiscard func(i int)
}

// NewJIQ returns a JIQ dispatcher over n computers with the given
// fallback for empty idle lists.
func NewJIQ(n int, fallback Dispatcher) (*JIQ, error) {
	if n < 1 {
		return nil, fmt.Errorf("dispatch: jiq needs at least one computer, got %d", n)
	}
	if fallback == nil {
		return nil, fmt.Errorf("dispatch: jiq needs a fallback dispatcher")
	}
	if fallback.N() != n {
		return nil, fmt.Errorf("dispatch: jiq fallback covers %d computers, want %d", fallback.N(), n)
	}
	return &JIQ{n: n, fallback: fallback, has: make([]bool, n)}, nil
}

func (q *JIQ) Name() string { return "jiq" }
func (q *JIQ) N() int       { return q.n }

// Bind installs the queue-state view on the JIQ dispatcher and its
// fallback.
func (q *JIQ) Bind(view QueueView) {
	q.view = view
	if sb, ok := q.fallback.(StateBound); ok {
		sb.Bind(view)
	}
}

// Fallback exposes the empty-idle-list dispatcher.
func (q *JIQ) Fallback() Dispatcher { return q.fallback }

// ReportIdle records an idle token for computer i. A computer holds at
// most one token; re-reports while a token is outstanding are no-ops.
func (q *JIQ) ReportIdle(i int) { q.ReportIdleLease(i, 0) }

// ReportIdleLease records an idle token for computer i with a lease
// expiry (0 = no lease; the token never expires). It reports whether a
// new token was installed: a re-report while a token is outstanding is
// deduplicated — it only refreshes the outstanding token's lease — and
// returns false. This is the idempotent-delivery hook the control plane
// relies on under message duplication.
func (q *JIQ) ReportIdleLease(i int, expiry float64) bool {
	if i < 0 || i >= q.n {
		return false
	}
	if q.has[i] {
		if q.expiry != nil {
			q.expiry[i] = expiry
		}
		return false
	}
	q.has[i] = true
	q.tokens = append(q.tokens, i)
	if expiry != 0 && q.expiry == nil {
		q.expiry = make([]float64, q.n)
	}
	if q.expiry != nil {
		q.expiry[i] = expiry
	}
	return true
}

// SetClock injects the simulation clock used to check token leases at
// pop time. Without a clock, leases are never enforced.
func (q *JIQ) SetClock(now func() float64) { q.now = now }

// SetTokenHooks installs pop-time outcome observers: spend (token used
// for a dispatch, with its lease expiry), expire (dropped past its
// lease), discard (dropped because the holder was down). Any may be
// nil.
func (q *JIQ) SetTokenHooks(onSpend, onExpire func(i int, expiry float64), onDiscard func(i int)) {
	q.onSpend = onSpend
	q.onExpire = onExpire
	q.onDiscard = onDiscard
}

// IdleTokens returns the number of outstanding idle tokens.
func (q *JIQ) IdleTokens() int { return len(q.tokens) - q.head }

// HasToken reports whether computer i currently holds an idle token.
func (q *JIQ) HasToken(i int) bool { return q.has[i] }

func (q *JIQ) isUp(i int) bool { return q.up == nil || q.up[i] }

// SetUp installs the availability mask. Tokens held by down computers
// are discarded at pop time; re-issuing a token to a repaired idle
// computer is the policy layer's job (sched.Scalable.UpSetChanged),
// which sees the whole replica set and can place exactly one token —
// doing it here issued one duplicate per replica and missed the
// repair-to-all-up transition entirely, where the mask arrives as nil.
func (q *JIQ) SetUp(up []bool) error {
	return q.setUpMask(up)
}

func (q *JIQ) setUpMask(up []bool) error {
	if up == nil {
		q.up = nil
	} else {
		if err := checkMask(up, q.n); err != nil {
			return err
		}
		q.up = append(q.up[:0], up...)
	}
	if m, ok := q.fallback.(Masked); ok {
		return m.SetUp(up)
	}
	return nil
}

// Next pops the oldest token held by an up computer and dispatches
// there; with no usable token it falls back. Tokens of down computers
// encountered on the way are discarded — the computer re-reports when
// it next goes idle.
func (q *JIQ) Next() int {
	for q.head < len(q.tokens) {
		i := q.tokens[q.head]
		q.head++
		q.has[i] = false
		switch {
		case q.head == len(q.tokens):
			q.tokens = q.tokens[:0]
			q.head = 0
		case q.head > 64 && 2*q.head >= len(q.tokens):
			// Compact the consumed prefix so the token list stays O(n).
			q.tokens = append(q.tokens[:0], q.tokens[q.head:]...)
			q.head = 0
		}
		exp := 0.0
		if q.expiry != nil {
			exp = q.expiry[i]
			q.expiry[i] = 0
		}
		if !q.isUp(i) {
			if q.onDiscard != nil {
				q.onDiscard(i)
			}
			continue
		}
		if exp > 0 && q.now != nil && exp <= q.now() {
			if q.onExpire != nil {
				q.onExpire(i, exp)
			}
			continue
		}
		if q.onSpend != nil {
			q.onSpend(i, exp)
		}
		return i
	}
	return q.fallback.Next()
}

var (
	_ StateBound = (*JSQD)(nil)
	_ Masked     = (*JSQD)(nil)
	_ StateBound = (*BiasedPowerOfD)(nil)
	_ Masked     = (*BiasedPowerOfD)(nil)
	_ StateBound = (*JIQ)(nil)
	_ Masked     = (*JIQ)(nil)
)
