package cluster_test

import (
	"runtime"
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/faults"
	"heterosched/internal/sched"
)

// runMallocs runs cfg once and returns the heap allocations it made and
// the jobs it generated.
func runMallocs(t *testing.T, cfg cluster.Config) (mallocs uint64, jobs int64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := cluster.Run(cfg, sched.ORR())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, res.GeneratedJobs
}

// TestRunSteadyStateAllocFloor locks cluster.Run's per-job allocation
// floor: doubling the horizon at the same seed doubles the jobs, and the
// extra allocations per extra job must stay below 0.01 — the steady-state
// arrival, dispatch and departure cycle allocates nothing, so only
// set-up, rare layer events and logarithmic slab growth remain. The
// faults + overload case mirrors the benchmark's fault and overload knobs;
// its failures and breaker trips allocate (fresh up-sets for the policy,
// cooldown timers) and arrive in bursts, so the horizon is long enough —
// about 60k jobs per half — for them to average out.
func TestRunSteadyStateAllocFloor(t *testing.T) {
	const horizon = 4e5
	cases := []struct {
		name string
		cfg  func() cluster.Config
	}{
		{"orr", func() cluster.Config {
			return cluster.Config{Speeds: []float64{1, 1, 2, 10}, Utilization: 0.7, Seed: 3}
		}},
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
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			short := c.cfg()
			short.Duration = horizon
			long := c.cfg()
			long.Duration = 2 * horizon
			runMallocs(t, short) // warm up lazily initialised package state
			m1, j1 := runMallocs(t, short)
			m2, j2 := runMallocs(t, long)
			if j2 <= j1 {
				t.Fatalf("doubling the horizon generated %d jobs, not more than %d", j2, j1)
			}
			perJob := (float64(m2) - float64(m1)) / float64(j2-j1)
			t.Logf("%d→%d jobs, %d→%d mallocs: %.5f extra allocs per extra job", j1, j2, m1, m2, perJob)
			if perJob >= 0.01 {
				t.Errorf("%.4f extra allocations per extra job, want < 0.01", perJob)
			}
		})
	}
}
