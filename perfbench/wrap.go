package main

import (
	"math"
	"time"

	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/dispatch"
	"heterosched/internal/sched"
	"heterosched/internal/sim"
)

// The traced pass runs cells with the policy and its StateViews wrapped.
// A wrapper forwards every call unchanged and times it; it implements
// exactly the optional cluster interfaces its inner type does, so Run
// takes the same branches with and without it and the Result stays
// DeepEqual (checked per cell, and by wrap_test.go).

// tracer accumulates the traced pass's exact call counts and durations
// over every traced cell, and feeds head-sampled spans to the span log.
type tracer struct {
	log *spanLog

	// The cell being traced: its span, its engine (captured from
	// Context.Engine in Init) and its start; selected is set by its
	// first Select.
	cell     int32
	en       *sim.Engine
	runStart time.Time
	selected bool

	// Nesting: depth counts open wrapped calls; viewNs accumulates the
	// time of view queries made inside the open policy call; span is
	// the open call's sampled span ID (-1 when not sampled).
	depth    int
	inSelect bool
	viewNs   int64
	span     int32

	// Totals over every traced cell.
	cells                     int
	jobs                      int64
	runNs, wrappedNs, setupNs int64 // wrappedNs: time inside top-level wrapped calls
	events                    uint64
	initNs                    int64
	selects, selectSelfNs     int64
	departs, departNs         int64
	upsets, replans           int64
	queries, queryNs          int64
	selectQueries             int64
	staleReads, agedReads     int64
	ageSum                    float64
	pendingMax                int
	pendingSum                int64
	shardCounts               []int64
}

func newTracer(log *spanLog) *tracer {
	return &tracer{log: log, span: -1}
}

// beginCell starts timing a traced cell recorded under the given span.
func (t *tracer) beginCell(cell int32) {
	t.cell, t.en, t.selected = cell, nil, false
	t.runStart = time.Now()
}

// endCell closes the cell, given Run's result, and returns its Run time
// in nanoseconds.
func (t *tracer) endCell(res *cluster.Result) int64 {
	d := time.Since(t.runStart).Nanoseconds()
	t.cells++
	t.runNs += d
	if t.en != nil {
		t.events += t.en.Fired()
	}
	if res != nil {
		t.jobs += res.GeneratedJobs
	}
	return d
}

// enter opens a wrapped policy call; leave closes it and returns the
// call's inclusive and self (minus view queries) durations.
func (t *tracer) enter() time.Time {
	t.depth++
	t.viewNs = 0
	return time.Now()
}

func (t *tracer) leave(start time.Time) (incl, self int64) {
	incl = time.Since(start).Nanoseconds()
	self = incl - t.viewNs
	t.depth--
	if t.depth == 0 {
		t.wrappedNs += incl
	}
	return incl, self
}

// query times one StateView read made through a wrapped view.
func (t *tracer) query(start time.Time, d int64, computer int, age float64) {
	t.queries++
	t.queryNs += d
	if t.depth > 0 {
		t.viewNs += d
	} else {
		t.wrappedNs += d
	}
	if t.inSelect {
		t.selectQueries++
		if age > 0 {
			t.staleReads++
		}
		if !math.IsInf(age, 1) {
			t.agedReads++
			t.ageSum += age
		}
	}
	if t.span >= 0 {
		t.log.add(spanQueueLen, t.span, uint64(computer), start, d)
	}
}

// core wraps the four cluster.Policy methods shared by every policy.
type core struct {
	inner cluster.Policy
	tr    *tracer
}

func (c *core) Name() string { return c.inner.Name() }

func (c *core) Init(ctx *cluster.Context) error {
	c.tr.en = ctx.Engine
	start := c.tr.enter()
	err := c.inner.Init(ctx)
	incl, _ := c.tr.leave(start)
	c.tr.initNs += incl
	return err
}

func (c *core) Select(j *sim.Job) int {
	t := c.tr
	if !t.selected {
		t.selected = true
		t.setupNs += time.Since(t.runStart).Nanoseconds()
	}
	p := t.en.Pending()
	t.pendingSum += int64(p)
	if p > t.pendingMax {
		t.pendingMax = p
	}
	if t.log.sampled(j.ID) {
		t.span = t.log.open(spanSelect, t.cell, j.ID)
	}
	t.inSelect = true
	start := t.enter()
	target := c.inner.Select(j)
	incl, self := t.leave(start)
	t.inSelect = false
	t.selects++
	t.selectSelfNs += self
	if t.span >= 0 {
		t.log.close(t.span, uint64(target), start, incl)
		t.span = -1
	}
	if sp, ok := c.inner.(cluster.ShardedPolicy); ok {
		k := sp.LastShard()
		for len(t.shardCounts) <= k {
			t.shardCounts = append(t.shardCounts, 0)
		}
		t.shardCounts[k]++
	}
	return target
}

func (c *core) Departed(j *sim.Job) {
	t := c.tr
	if t.log.sampled(j.ID) {
		t.span = t.log.open(spanDeparted, t.cell, j.ID)
	}
	start := t.enter()
	c.inner.Departed(j)
	incl, _ := t.leave(start)
	t.departs++
	t.departNs += incl
	if t.span >= 0 {
		t.log.close(t.span, uint64(j.Target), start, incl)
		t.span = -1
	}
}

// upSetChanged forwards cluster.FaultAware.
func (c *core) upSetChanged(fa cluster.FaultAware, up []bool) {
	start := c.tr.enter()
	fa.UpSetChanged(up)
	c.tr.leave(start)
	c.tr.upsets++
}

// staticWrap wraps *sched.Static: Policy, FractionProvider, FaultAware,
// Replannable, CtrlAware and ShardedPolicy.
type staticWrap struct {
	core
	s *sched.Static
}

var (
	_ cluster.FractionProvider = (*staticWrap)(nil)
	_ cluster.FaultAware       = (*staticWrap)(nil)
	_ cluster.Replannable      = (*staticWrap)(nil)
	_ cluster.CtrlAware        = (*staticWrap)(nil)
	_ cluster.ShardedPolicy    = (*staticWrap)(nil)
)

func (w *staticWrap) Fractions() []float64        { return w.s.Fractions() }
func (w *staticWrap) UpSetChanged(up []bool)      { w.upSetChanged(w.s, up) }
func (w *staticWrap) BindCtrl(p *ctrlplane.Plane) { w.s.BindCtrl(p) }
func (w *staticWrap) Shards() int                 { return w.s.Shards() }
func (w *staticWrap) LastShard() int              { return w.s.LastShard() }

func (w *staticWrap) Replan(speeds []float64, rho float64) error {
	start := w.tr.enter()
	err := w.s.Replan(speeds, rho)
	w.tr.leave(start)
	w.tr.replans++
	return err
}

func (w *staticWrap) ReplanProportional(speeds []float64) error {
	start := w.tr.enter()
	err := w.s.ReplanProportional(speeds)
	w.tr.leave(start)
	w.tr.replans++
	return err
}

// scalableWrap wraps *sched.Scalable: Policy, StateAware, FaultAware,
// ShardedPolicy, CtrlAware and DecisionCost.
type scalableWrap struct {
	core
	s     *sched.Scalable
	plane *ctrlplane.Plane
}

var (
	_ cluster.StateAware    = (*scalableWrap)(nil)
	_ cluster.FaultAware    = (*scalableWrap)(nil)
	_ cluster.ShardedPolicy = (*scalableWrap)(nil)
	_ cluster.CtrlAware     = (*scalableWrap)(nil)
	_ cluster.DecisionCost  = (*scalableWrap)(nil)
)

func (w *scalableWrap) UpSetChanged(up []bool)    { w.upSetChanged(w.s, up) }
func (w *scalableWrap) Shards() int               { return w.s.Shards() }
func (w *scalableWrap) LastShard() int            { return w.s.LastShard() }
func (w *scalableWrap) TakeDecisionCost() float64 { return w.s.TakeDecisionCost() }

func (w *scalableWrap) BindCtrl(p *ctrlplane.Plane) {
	w.plane = p
	w.s.BindCtrl(p)
}

// BindState hands the policy a wrapped oracle view. With the control
// plane bound, the replicas' samplers read through the plane's probing
// views instead, which the policy installs itself; those are re-bound
// to wrapped copies of the same views so their probes are timed too.
func (w *scalableWrap) BindState(view cluster.StateView) {
	start := w.tr.enter()
	w.s.BindState(&viewWrap{inner: view, tr: w.tr})
	if w.plane != nil {
		sh := w.s.Sharded()
		for k := 0; k < sh.K(); k++ {
			if sb, ok := sh.Replica(k).(dispatch.StateBound); ok {
				sb.Bind(&viewWrap{inner: w.plane.View(k), tr: w.tr})
			}
		}
	}
	w.tr.leave(start)
}

// viewWrap times StateView reads. Age is read after the timed QueueLen
// (it is a pure read) to classify the observation as live or stale.
type viewWrap struct {
	inner cluster.StateView
	tr    *tracer
}

func (v *viewWrap) QueueLen(i int) int {
	start := time.Now()
	q := v.inner.QueueLen(i)
	d := time.Since(start).Nanoseconds()
	v.tr.query(start, d, i, v.inner.Age(i))
	return q
}

func (v *viewWrap) Age(i int) float64 { return v.inner.Age(i) }
func (v *viewWrap) N() int            { return v.inner.N() }

// wrapPolicy returns the traced wrapper for p; ok is false for a policy
// type the benchmark has no wrapper for.
func wrapPolicy(p cluster.Policy, tr *tracer) (cluster.Policy, bool) {
	switch s := p.(type) {
	case *sched.Static:
		return &staticWrap{core: core{inner: s, tr: tr}, s: s}, true
	case *sched.Scalable:
		return &scalableWrap{core: core{inner: s, tr: tr}, s: s}, true
	}
	return nil, false
}
