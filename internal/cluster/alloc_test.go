package cluster_test

import (
	"runtime"
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/faults"
	"heterosched/internal/probe"
	"heterosched/internal/sched"
)

// runMallocs runs cfg once under a fresh policy from newPolicy and
// returns the heap allocations it made and the jobs it generated.
func runMallocs(t *testing.T, cfg cluster.Config, newPolicy cluster.PolicyFactory) (mallocs uint64, jobs int64) {
	t.Helper()
	p := newPolicy()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := cluster.Run(cfg, p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, res.GeneratedJobs
}

// TestRunSteadyStateAllocFloor locks cluster.Run's per-job allocation
// floor: doubling the horizon at the same seed doubles the jobs, and the
// extra allocations per extra job must stay below the case's limit — the
// steady-state arrival, dispatch and departure cycle allocates nothing,
// so only set-up, rare layer events and logarithmic slab growth remain.
// The faults + overload case mirrors the benchmark's fault and overload
// knobs; its failures and breaker trips arrive in bursts, so the horizon
// is long enough — about 60k jobs per half — for them to average out.
// overload-kill-timeout arms a deadline kill per job and a dispatch
// timeout per dispatch, with retry backoffs. netfault-probe is the
// benchmark's every-layer fleet (faults, overload, drift and re-planning,
// netfault) with metrics and spans on; its limit leaves room for the
// policy's stale-fallback re-plan on saturated up-sets, which allocates
// the renormalized fractions and the allocator's error on every breaker
// or fault edge.
func TestRunSteadyStateAllocFloor(t *testing.T) {
	const horizon = 4e5
	orr := func() cluster.Policy { return sched.ORR() }
	cases := []struct {
		name      string
		cfg       func() cluster.Config
		newPolicy cluster.PolicyFactory
		limit     float64
	}{
		{"orr", func() cluster.Config {
			return cluster.Config{Speeds: []float64{1, 1, 2, 10}, Utilization: 0.7, Seed: 3}
		}, orr, 0.01},
		{"faults-overload", func() cluster.Config {
			return cluster.Config{
				Speeds: []float64{1, 1, 2, 10}, Utilization: 0.85, Seed: 3,
				Faults: &faults.Config{
					Uptime:       dist.NewExponential(5e4),
					Downtime:     dist.NewExponential(2e3),
					Fate:         faults.RequeueToDispatcher,
					DetectionLag: 30,
				},
				Overload: &cluster.OverloadConfig{
					QueueCap:       50,
					Deadline:       dist.NewExponential(2000),
					DeadlineAction: cluster.DeadlineMark,
					Breaker:        &dispatch.BreakerConfig{Consecutive: 5, Cooldown: 300},
				},
			}
		}, orr, 0.01},
		{"overload-kill-timeout", func() cluster.Config {
			return cluster.Config{
				Speeds: []float64{1, 1, 2, 10}, Utilization: 0.9, Seed: 3,
				Overload: &cluster.OverloadConfig{
					QueueCap:       50,
					Deadline:       dist.NewExponential(2000),
					DeadlineAction: cluster.DeadlineKill,
					Timeout:        300,
					RetryBudget:    2,
				},
			}
		}, orr, 0.05},
		{"netfault-probe", func() cluster.Config {
			cfg, _ := faultedFleetConfig(t, 3)
			pb, err := probe.New(probe.Options{Metrics: true, Spans: true})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Probe = pb // a probe serves one run
			return cfg
		}, func() cluster.Policy {
			_, p := faultedFleetConfig(t, 3)
			return p
		}, 0.05},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(d float64) (uint64, int64) {
				cfg := c.cfg()
				cfg.Duration = d
				return runMallocs(t, cfg, c.newPolicy)
			}
			run(horizon) // warm up lazily initialised package state
			m1, j1 := run(horizon)
			m2, j2 := run(2 * horizon)
			if j2 <= j1 {
				t.Fatalf("doubling the horizon generated %d jobs, not more than %d", j2, j1)
			}
			perJob := (float64(m2) - float64(m1)) / float64(j2-j1)
			t.Logf("%d→%d jobs, %d→%d mallocs: %.5f extra allocs per extra job", j1, j2, m1, m2, perJob)
			if perJob >= c.limit {
				t.Errorf("%.4f extra allocations per extra job, want < %g", perJob, c.limit)
			}
		})
	}
}
