package faults

import (
	"math"
	"testing"

	"heterosched/internal/dist"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
)

// newTestSystem builds one PS server and an injector over it.
func newTestSystem(t *testing.T, cfg *Config, horizon float64, hooks Hooks, onDepart func(*sim.Job)) (*sim.Engine, *Injector, sim.Preemptable) {
	t.Helper()
	en := &sim.Engine{}
	srv := sim.NewPSServer(en, 1.0, onDepart)
	inj, err := NewInjector(en, cfg, []sim.Preemptable{srv}, rng.New(1), horizon, hooks)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	return en, inj, srv
}

// TestDeterministicAlternation: Det(10) uptime / Det(5) downtime gives
// failures at 10, 25, 40, ... and availability 2/3 over full cycles.
func TestDeterministicAlternation(t *testing.T) {
	cfg := &Config{
		Uptime:   dist.Deterministic{Value: 10},
		Downtime: dist.Deterministic{Value: 5},
		Fate:     Lost,
	}
	var failTimes, repairTimes []float64
	en := &sim.Engine{}
	srv := sim.NewPSServer(en, 1.0, nil)
	inj, err := NewInjector(en, cfg, []sim.Preemptable{srv}, rng.New(1), 45, Hooks{
		OnFail:   func(int) { failTimes = append(failTimes, en.Now()) },
		OnRepair: func(int) { repairTimes = append(repairTimes, en.Now()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	en.RunUntil(math.Inf(1))
	en.AdvanceTo(45)
	inj.Finish(45)

	wantFails := []float64{10, 25, 40}
	wantRepairs := []float64{15, 30, 45}
	if len(failTimes) != len(wantFails) {
		t.Fatalf("failures at %v, want %v", failTimes, wantFails)
	}
	for k := range wantFails {
		if math.Abs(failTimes[k]-wantFails[k]) > 1e-9 {
			t.Errorf("failure %d at %v, want %v", k, failTimes[k], wantFails[k])
		}
	}
	if len(repairTimes) != len(wantRepairs) {
		t.Fatalf("repairs at %v, want %v", repairTimes, wantRepairs)
	}
	// Availability over [0,45]: up 10+10+10 = 30 of 45 = 2/3.
	if got := inj.Availability(0); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("availability %v, want 2/3", got)
	}
	if got := inj.DegradedTime(); math.Abs(got-15) > 1e-9 {
		t.Errorf("degraded time %v, want 15", got)
	}
	if inj.Failures() != 3 || inj.Repairs() != 3 {
		t.Errorf("failures=%d repairs=%d, want 3/3", inj.Failures(), inj.Repairs())
	}
}

// TestHorizonStopsFailures: a failure whose sampled time falls past the
// horizon is never scheduled, so the run drains to completion.
func TestHorizonStopsFailures(t *testing.T) {
	cfg := &Config{
		Uptime:   dist.Deterministic{Value: 10},
		Downtime: dist.Deterministic{Value: 5},
		Fate:     ResumeOnRepair,
	}
	var done []*sim.Job
	en, inj, srv := newTestSystem(t, cfg, 12, Hooks{}, func(j *sim.Job) { done = append(done, j) })
	inj.Start()
	// Job arrives at t=9 with 3 s of work: fails at 10 with 2 s left,
	// resumes at the t=15 repair (past the horizon), finishes at 17. The
	// next failure would be at 25 > horizon, so it is never scheduled and
	// RunUntil(+Inf) terminates.
	en.Schedule(9, func() { inj.Arrive(0, &sim.Job{ID: 1, Size: 3, Arrival: 9}) })
	en.RunUntil(12)
	en.RunUntil(math.Inf(1))
	if len(done) != 1 {
		t.Fatalf("completed %d jobs, want 1", len(done))
	}
	if math.Abs(done[0].Completion-17) > 1e-9 {
		t.Errorf("completion at %v, want 17", done[0].Completion)
	}
	if srv.InService() != 0 {
		t.Errorf("%d jobs stuck in service", srv.InService())
	}
	if inj.Failures() != 1 || inj.Repairs() != 1 {
		t.Errorf("failures=%d repairs=%d, want 1/1", inj.Failures(), inj.Repairs())
	}
}

// TestFateLost: jobs in progress at failure time are discarded and
// reported via OnLost.
func TestFateLost(t *testing.T) {
	cfg := &Config{
		Uptime:   dist.Deterministic{Value: 10},
		Downtime: dist.Deterministic{Value: 5},
		Fate:     Lost,
	}
	var lost, done []*sim.Job
	en, inj, _ := newTestSystem(t, cfg, 12,
		Hooks{OnLost: func(j *sim.Job) { lost = append(lost, j) }},
		func(j *sim.Job) { done = append(done, j) })
	inj.Start()
	en.Schedule(9, func() { inj.Arrive(0, &sim.Job{ID: 1, Size: 100, Arrival: 9}) })
	en.RunUntil(math.Inf(1))
	if len(lost) != 1 || lost[0].ID != 1 {
		t.Fatalf("lost %v, want job 1", lost)
	}
	if len(done) != 0 {
		t.Errorf("job completed despite Lost fate")
	}
	if inj.JobsLost() != 1 {
		t.Errorf("JobsLost=%d, want 1", inj.JobsLost())
	}
}

// TestFateRestartVsResume: the same scenario under the two hold fates —
// restart loses the pre-failure progress, resume keeps it.
func TestFateRestartVsResume(t *testing.T) {
	run := func(fate Fate) float64 {
		cfg := &Config{
			Uptime:   dist.Deterministic{Value: 10},
			Downtime: dist.Deterministic{Value: 5},
			Fate:     fate,
		}
		var done []*sim.Job
		en, inj, _ := newTestSystem(t, cfg, 12, Hooks{}, func(j *sim.Job) { done = append(done, j) })
		inj.Start()
		// 4 s of work arriving at t=8: 2 s served before the t=10 failure.
		en.Schedule(8, func() { inj.Arrive(0, &sim.Job{ID: 1, Size: 4, Arrival: 8}) })
		en.RunUntil(math.Inf(1))
		if len(done) != 1 {
			t.Fatalf("fate %v: completed %d jobs, want 1", fate, len(done))
		}
		return done[0].Completion
	}
	// Resume: 2 s left at the t=15 repair → completes at 17.
	if got := run(ResumeOnRepair); math.Abs(got-17) > 1e-9 {
		t.Errorf("resume completion %v, want 17", got)
	}
	// Restart: full 4 s from t=15 → completes at 19.
	if got := run(RestartInPlace); math.Abs(got-19) > 1e-9 {
		t.Errorf("restart completion %v, want 19", got)
	}
}

// TestFateRequeueRetryBound: each failure consumes one retry; once the
// budget is exhausted the job is lost.
func TestFateRequeueRetryBound(t *testing.T) {
	cfg := &Config{
		Uptime:     dist.Deterministic{Value: 10},
		Downtime:   dist.Deterministic{Value: 5},
		Fate:       RequeueToDispatcher,
		MaxRetries: 2,
	}
	var lost []*sim.Job
	var inj *Injector
	en := &sim.Engine{}
	srv := sim.NewPSServer(en, 1.0, nil)
	// Requeue immediately re-dispatches to the same (only) computer.
	inj, err := NewInjector(en, cfg, []sim.Preemptable{srv}, rng.New(1), 100,
		Hooks{
			Requeue: func(j *sim.Job) { inj.Arrive(0, j) },
			OnLost:  func(j *sim.Job) { lost = append(lost, j) },
		})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	// The job needs 12 s on a computer that is only ever up 10 s at a
	// stretch, so every dispatch ends in a failure: retries 1 and 2
	// requeue, the third failure exceeds MaxRetries=2 and loses it.
	inj.Arrive(0, &sim.Job{ID: 1, Size: 12, Arrival: 0})
	en.RunUntil(math.Inf(1))
	if len(lost) != 1 {
		t.Fatalf("lost %d jobs, want 1", len(lost))
	}
	if lost[0].Retries != 3 {
		t.Errorf("lost after %d retries, want 3", lost[0].Retries)
	}
	if inj.JobsRequeued() != 2 {
		t.Errorf("JobsRequeued=%d, want 2", inj.JobsRequeued())
	}
	if inj.JobsLost() != 1 {
		t.Errorf("JobsLost=%d, want 1", inj.JobsLost())
	}
}

// TestArriveAtDownComputer: jobs dispatched to a down computer are held
// (non-requeue fates) or retried (requeue fate).
func TestArriveAtDownComputer(t *testing.T) {
	cfg := &Config{
		Uptime:   dist.Deterministic{Value: 10},
		Downtime: dist.Deterministic{Value: 5},
		Fate:     ResumeOnRepair,
	}
	var done []*sim.Job
	en, inj, _ := newTestSystem(t, cfg, 12, Hooks{}, func(j *sim.Job) { done = append(done, j) })
	inj.Start()
	// Arrives at t=12 while the computer is down (10–15): held, starts at
	// 15, finishes at 18.
	en.Schedule(12, func() { inj.Arrive(0, &sim.Job{ID: 1, Size: 3, Arrival: 12}) })
	en.RunUntil(math.Inf(1))
	if len(done) != 1 {
		t.Fatalf("completed %d jobs, want 1", len(done))
	}
	if math.Abs(done[0].Completion-18) > 1e-9 {
		t.Errorf("completion %v, want 18", done[0].Completion)
	}
}

// TestPlannedAvailability checks the MTBF/(MTBF+MTTR) vector, including
// per-computer overrides and the infinite-MTBF case.
func TestPlannedAvailability(t *testing.T) {
	cfg := &Config{
		Uptime:    dist.NewExponential(900),
		Downtime:  dist.NewExponential(100),
		UptimePer: []dist.Distribution{nil, dist.Deterministic{Value: math.Inf(1)}, nil},
	}
	av, err := cfg.PlannedAvailability(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.9, 1, 0.9}
	for i := range want {
		if math.Abs(av[i]-want[i]) > 1e-12 {
			t.Errorf("availability[%d] = %v, want %v", i, av[i], want[i])
		}
	}
	if _, err := (&Config{}).PlannedAvailability(3); err != ErrNoFailureModel {
		t.Errorf("disabled config: err = %v, want ErrNoFailureModel", err)
	}
}

// TestConfigValidate covers the rejection paths.
func TestConfigValidate(t *testing.T) {
	up := dist.NewExponential(100)
	down := dist.NewExponential(10)
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"disabled", Config{}, true},
		{"good", Config{Uptime: up, Downtime: down}, true},
		{"missing downtime", Config{Uptime: up}, false},
		{"per-computer length", Config{Uptime: up, Downtime: down, UptimePer: []dist.Distribution{up}}, false},
		{"bad fate", Config{Uptime: up, Downtime: down, Fate: Fate(99)}, false},
		{"negative retries", Config{Uptime: up, Downtime: down, MaxRetries: -1}, false},
		{"negative lag", Config{Uptime: up, Downtime: down, DetectionLag: -1}, false},
		{"infinite lag", Config{Uptime: up, Downtime: down, DetectionLag: math.Inf(1)}, false},
		{"NaN lag", Config{Uptime: up, Downtime: down, DetectionLag: math.NaN()}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate(2)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: error not detected", tc.name)
		}
	}
}

// TestParseFate round-trips the mnemonics.
func TestParseFate(t *testing.T) {
	for _, f := range []Fate{Lost, RestartInPlace, ResumeOnRepair, RequeueToDispatcher} {
		got, err := ParseFate(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFate(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFate("explode"); err == nil {
		t.Error("ParseFate accepted garbage")
	}
}
