package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"heterosched/internal/alloc"
	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
)

// marginalLayers are the layers whose marginal cost the traced run
// reports (zero on a workload where the layer is off).
var marginalLayers = []string{"faults", "overload", "adapt", "netfault", "probe", "ctrl"}

// spanSampleShift head-samples one job in 2^spanSampleShift into the
// span export; maxSpans bounds the export's size.
const (
	spanSampleShift = 8
	maxSpans        = 1 << 20
)

// ledger sums the Result counters of the untraced cells, with the
// layers' own aggregation methods where they have one.
type ledger struct {
	generated, jobs, degraded, requeued, lost int64
	replans, fallbacks                        int64
	ctrl                                      ctrlplane.Stats
	net                                       cluster.NetfaultStats
	ov                                        cluster.OverloadStats
}

func (l *ledger) add(r *cluster.Result) {
	l.generated += r.GeneratedJobs
	l.jobs += r.Jobs
	l.degraded += r.DegradedJobs
	l.requeued += r.JobsRequeued
	l.lost += r.JobsLost
	l.ctrl.Add(r.Ctrl)
	l.net.AddCounters(r.Netfault)
	l.ov.AddCounters(r.Overload)
	if ad := r.Adaptive; ad != nil {
		l.replans += ad.Replans
		l.fallbacks += ad.Fallbacks
	}
}

// measureTraced is the per-layer pass. For each cell seed it runs, back
// to back, the untraced cell, the same cell traced (whose Result must be
// DeepEqual to the untraced one), and the cell once more with each
// optional layer removed; interleaving keeps host drift out of the
// differences. It writes the span export to spansPath.
func measureTraced(w workload, b *built, seed uint64, seconds float64, spansPath string, o *outcome) error {
	layers := w.layers()
	ablated := make([]*built, len(layers))
	ablCost := make([]hostCost, len(layers))
	for k, l := range layers {
		a, err := w.without(l).build()
		if err != nil {
			return fmt.Errorf("workload without %s: %w", l, err)
		}
		ablated[k] = a
	}

	s := newRuntimeSamples()
	log := newSpanLog(spanSampleShift, maxSpans)
	root := log.open(spanWorkload, -1, 0)
	passStart := time.Now()

	if err := coldCell(b, seed, o); err != nil {
		return err
	}

	var plain hostCost
	var refs []float64
	var led ledger
	tr := newTracer(log)
	start := time.Now()
	for i := 1; i <= 3 || time.Since(start).Seconds() < seconds; i++ {
		cs := cellSeed(seed, i)
		cfg, err := b.cell(cs)
		if err != nil {
			return err
		}
		o.attempted++
		base, err := plain.timedRun(s, cfg, b.factory())
		if err := checkResult(base, err); err != nil {
			o.fail(fmt.Sprintf("cell %d", i), err)
			continue
		}
		led.add(base)

		if cfg, err = b.cell(cs); err != nil {
			return err
		}
		cellSpan := log.open(spanCell, root, 0)
		p, ok := wrapPolicy(b.factory(), tr)
		if !ok {
			return fmt.Errorf("no traced wrapper for policy %s", b.factory().Name())
		}
		o.attempted++
		tr.beginCell(cellSpan)
		res, err := cluster.Run(cfg, p)
		runNs := tr.endCell(res)
		log.close(cellSpan, cs, tr.runStart, runNs)
		if err := checkResult(res, err); err != nil {
			o.fail(fmt.Sprintf("traced cell %d", i), err)
			continue
		}
		if !reflect.DeepEqual(base, res) {
			o.fail(fmt.Sprintf("traced cell %d", i), fmt.Errorf("Result differs from the untraced run"))
			continue
		}
		refs = append(refs, refKernel())

		for k, a := range ablated {
			cfg, err := a.cell(cs)
			if err != nil {
				return err
			}
			o.attempted++
			res, err := ablCost[k].timedRun(s, cfg, a.factory())
			if err := checkResult(res, err); err != nil {
				o.fail(fmt.Sprintf("cell %d without %s", i, layers[k]), err)
			}
		}
	}
	log.close(root, seed, passStart, time.Since(passStart).Nanoseconds())

	o.attempted++
	if err := checkOracle(); err != nil {
		o.fail("analytic oracle", err)
	}
	if plain.jobs == 0 || tr.jobs == 0 {
		return fmt.Errorf("no cell completed")
	}

	jobs := float64(tr.jobs)
	set := o.set
	set("cluster.self_ns_per_job", "ns", float64(tr.runNs-tr.wrappedNs)/jobs)
	set("cluster.setup_ms", "ms", float64(tr.setupNs)/1e6/float64(tr.cells))
	set("sim.events_per_job", "count", float64(tr.events)/jobs)
	set("sim.ns_per_event", "ns", holdNsPerEvent(ratio(float64(tr.pendingSum), float64(tr.selects))))
	set("sim.pending_max", "count", float64(tr.pendingMax))
	set("sched.init_us", "us", float64(tr.initNs)/1e3/float64(tr.cells))
	set("sched.select_ns", "ns", ratio(float64(tr.selectSelfNs), float64(tr.selects)))
	set("sched.departed_ns", "ns", ratio(float64(tr.departNs), float64(tr.departs)))
	set("sched.selects_per_job", "count", float64(tr.selects)/jobs)
	set("sched.upset_calls", "count", float64(tr.upsets)/float64(tr.cells))
	set("sched.replan_calls", "count", float64(tr.replans)/float64(tr.cells))
	set("dispatch.replica_share_max", "ratio", replicaShareMax(tr.shardCounts))
	set("view.query_ns", "ns", ratio(float64(tr.queryNs), float64(tr.queries)))
	set("view.queries_per_select", "count", ratio(float64(tr.selectQueries), float64(tr.selects)))
	set("view.stale_frac", "frac", ratio(float64(tr.staleReads), float64(tr.selectQueries)))
	set("view.age_mean_s", "s", ratio(tr.ageSum, float64(tr.agedReads)))
	solve, err := solveMicros(b.cfg.Speeds, b.cfg.Utilization)
	if err != nil {
		return err
	}
	set("alloc.solve_us", "us", solve)

	gen := float64(led.generated)
	set("ctrl.msgs_per_job", "count", float64(led.ctrl.TokensSent+led.ctrl.Queries+led.ctrl.SyncSent)/gen)
	set("ctrl.token_spent_frac", "frac", ratio(float64(led.ctrl.TokensSpent), float64(led.ctrl.TokensSent)))
	set("ctrl.token_expired_frac", "frac", ratio(float64(led.ctrl.TokensExpired), float64(led.ctrl.TokensSent)))
	set("ctrl.query_timeout_frac", "frac", ratio(float64(led.ctrl.DecisionTimeouts), float64(led.ctrl.Decisions)))
	set("ctrl.query_wait_s_per_job", "s", led.ctrl.QueryWait/gen)
	set("net.sends_per_job", "count", float64(led.net.Sent)/gen)
	set("net.resubmits_per_job", "count", float64(led.net.Resubmits)/gen)
	set("net.dedup_frac", "frac", ratio(float64(led.net.DupDeliveries+led.net.StaleDeliveries), float64(led.net.Sent+led.net.DupCopies)))
	set("net.ack_timeout_frac", "frac", ratio(float64(led.net.AckTimeouts), float64(led.net.Sent)))
	set("faults.requeues_per_kjob", "count", 1e3*float64(led.requeued)/gen)
	set("faults.lost_frac", "frac", float64(led.lost)/gen)
	set("faults.degraded_frac", "frac", ratio(float64(led.degraded), float64(led.jobs)))
	set("overload.shed_frac", "frac", float64(led.ov.ShedOverflow)/gen)
	set("overload.deadline_miss_frac", "frac", float64(led.ov.DeadlineMisses)/gen)
	set("overload.breaker_trips", "count", float64(led.ov.BreakerTrips)/float64(plain.cells))
	set("adapt.replans", "count", float64(led.replans)/float64(plain.cells))
	set("adapt.fallbacks", "count", float64(led.fallbacks)/float64(plain.cells))

	for _, l := range marginalLayers {
		v := 0.0
		for k, on := range layers {
			if on == l && ablCost[k].jobs > 0 {
				v = plain.nsPerJob() - ablCost[k].nsPerJob()
			}
		}
		set("layer."+l+".marginal_ns_per_job", "ns", v)
	}
	set("gort.gc_cpu_frac", "frac", ratio(plain.rt.gcCPU, plain.rt.gcCPU+plain.rt.userCPU))
	set("gort.gc_cycles_per_mjob", "count", 1e6*float64(plain.rt.gcs)/float64(plain.jobs))
	set("trace.overhead_frac", "frac", float64(tr.runNs)/jobs/plain.nsPerJob()-1)
	set("host.ref_ns", "ns", quantile(refs, 0.5))

	summary := map[string]float64{
		"cells":                  float64(tr.cells),
		"cell.total_ns":          float64(tr.runNs),
		"cell.self_ns":           float64(tr.runNs - tr.wrappedNs),
		"Select.calls":           float64(tr.selects),
		"Select.self_ns":         float64(tr.selectSelfNs),
		"Departed.calls":         float64(tr.departs),
		"Departed.total_ns":      float64(tr.departNs),
		"QueueLen.calls":         float64(tr.queries),
		"QueueLen.total_ns":      float64(tr.queryNs),
		"spans.sample_one_in":    float64(uint64(1) << spanSampleShift),
		"spans.dropped_at_limit": float64(log.dropped),
	}
	if err := log.write(spansPath, summary); err != nil {
		return fmt.Errorf("span export: %w", err)
	}
	o.info = append(o.info, fmt.Sprintf("cells=%d (each run untraced, traced and without each of %v) spans=%d written to %s",
		tr.cells, layers, len(log.spans), spansPath))
	return nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replicaShareMax is the busiest dispatcher replica's share of decisions
// relative to an even 1/K split (1 = perfectly even).
func replicaShareMax(counts []int64) float64 {
	var total, max int64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / float64(total) * float64(len(counts))
}

// solveMicros times Algorithm 1 (alloc.Optimized) on the workload's
// speeds and returns the median microseconds over repeated solves.
func solveMicros(speeds []float64, rho float64) (float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < 15 || (len(times) < 1000 && time.Since(start) < 100*time.Millisecond) {
		t := time.Now()
		if _, err := (alloc.Optimized{}).Allocate(speeds, rho); err != nil {
			return 0, fmt.Errorf("alloc.Optimized: %w", err)
		}
		times = append(times, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return quantile(times, 0.5), nil
}

// holdNsPerEvent measures the bare engine's cost per event with the
// classic hold model at the workload's mean queue depth: every fired
// event schedules one successor an exponential delay later, so the heap
// stays at depth events throughout.
func holdNsPerEvent(depth float64) float64 {
	n := int(math.Max(1, math.Round(depth)))
	en := &sim.Engine{}
	st := rng.New(1)
	var fire func()
	fire = func() { en.ScheduleAfter(st.Exp(1), fire) }
	for i := 0; i < n; i++ {
		en.Schedule(st.Exp(1), fire)
	}
	const warm, measured = 50_000, 500_000
	for i := 0; i < warm; i++ {
		en.Step()
	}
	start := time.Now()
	for i := 0; i < measured; i++ {
		en.Step()
	}
	return float64(time.Since(start).Nanoseconds()) / measured
}
