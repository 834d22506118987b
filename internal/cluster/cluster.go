// Package cluster implements the paper's system model (Figure 1): jobs
// arrive at a central scheduler that dispatches them, without
// rescheduling, to one of n computers with different speeds; each computer
// runs its jobs under preemptive processor scheduling to completion.
//
// The package provides the workload generator (§4.1 defaults: Bounded
// Pareto job sizes with mean 76.8 s, two-stage hyperexponential arrivals
// with CV 3), warm-up truncation (first quarter of the run), the three
// paper metrics (mean response time, mean response ratio, fairness = the
// standard deviation of the response ratio), per-computer accounting used
// by Table 1 and Figure 2, and a replication runner that executes
// independent seeded runs in parallel and aggregates them with confidence
// intervals.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"heterosched/internal/ctrlplane"
	"heterosched/internal/dist"
	"heterosched/internal/drift"
	"heterosched/internal/faults"
	"heterosched/internal/netfault"
	"heterosched/internal/probe"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
	"heterosched/internal/stats"
)

// Discipline selects the processor-scheduling model for every computer.
type Discipline int

const (
	// PS is exact processor sharing (the analysis model; default).
	PS Discipline = iota
	// RR is quantum-based preemptive round-robin (§4.1's literal
	// discipline); set Config.Quantum.
	RR
	// FCFS serves jobs to completion in arrival order (contrast model).
	FCFS
)

// String returns the discipline mnemonic.
func (d Discipline) String() string {
	switch d {
	case PS:
		return "PS"
	case RR:
		return "RR"
	case FCFS:
		return "FCFS"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Config describes one simulation run.
type Config struct {
	// Speeds are the computers' relative speeds (all > 0).
	Speeds []float64
	// Utilization is the offered load ρ = λ/(μ Σ s_i). The paper's model
	// assumes ρ < 1; values ≥ 1 (overload) are permitted so the
	// protection mechanisms in Overload can be studied, but without them
	// queues grow without bound.
	Utilization float64
	// JobSize is the service-demand distribution; nil means the paper
	// default Bounded Pareto B(10, 21600, 1.0), mean 76.8 s.
	JobSize dist.Distribution
	// ArrivalCV is the coefficient of variation of inter-arrival times.
	// Values > 1 use a balanced-means two-stage hyperexponential; exactly
	// 1 (or 0, meaning "default") uses the paper default CV of 3.0. Set
	// ExponentialArrivals for a Poisson process.
	ArrivalCV float64
	// ExponentialArrivals forces a Poisson arrival process (CV = 1).
	ExponentialArrivals bool
	// Duration is the total simulated time in seconds (default 4.0e6, the
	// paper's run length).
	Duration float64
	// WarmupFraction is the fraction of Duration treated as start-up and
	// excluded from job statistics. Zero means the paper default 0.25
	// (the first quarter of the run); pass a negative value for no
	// warm-up at all. Jobs are counted if they *arrive* after the
	// warm-up.
	WarmupFraction float64
	// Seed drives all randomness in the run.
	Seed uint64
	// Discipline selects the server model (default PS).
	Discipline Discipline
	// Quantum is the RR slice length in seconds (required for RR).
	Quantum float64
	// DeviationInterval, when positive, records the workload allocation
	// deviation (Figure 2) over consecutive intervals of this many
	// seconds, starting at time 0.
	DeviationInterval float64
	// Drain, when true, keeps the simulation running after Duration until
	// all admitted jobs complete, so no job's response time is lost. When
	// false, jobs still in service at Duration are discarded (the paper's
	// approach is immaterial at its run lengths; Drain defaults to true).
	Drain *bool
	// OnDeparture, when non-nil, is invoked for every post-warm-up job at
	// its completion time (e.g. to write a job trace). The callback must
	// not retain the job past the call. It fires only for completed jobs;
	// use OnFinal to observe every terminal outcome.
	OnDeparture func(*sim.Job)
	// OnFinal, when non-nil, is invoked exactly once for every
	// post-warm-up job at its terminal event, whatever the outcome:
	// completion (possibly late), deadline kill, queue shed, retry-budget
	// drop, admission rejection, or loss to a failure. The callback must
	// not retain the job past the call. With Drain false, jobs still in
	// flight at the horizon never reach a terminal event and are not
	// reported.
	OnFinal func(*sim.Job, Outcome)
	// Probe, when non-nil and enabled, attaches the observability layer
	// (see internal/probe): lifecycle events, time-weighted metric series
	// and cadence samples. A probe belongs to exactly one run — do not
	// share one across replications. With Probe nil or disabled the run
	// is bit-identical to a build without the probe subsystem: no extra
	// random stream is derived and no extra events are scheduled.
	Probe *probe.Probe
	// Replay, when non-empty, drives arrivals from this trace (sorted by
	// ascending Arrival) instead of the synthetic generators: JobSize,
	// ArrivalCV and ExponentialArrivals are ignored, and Duration
	// defaults to the last trace arrival. Utilization is still passed to
	// the policy (static allocators need the offered load); set it to the
	// trace's measured utilization.
	Replay []ReplayJob
	// Arrivals, when non-nil, overrides the default renewal arrival
	// process (H2 with ArrivalCV) with a custom one, e.g.
	// SinusoidalPoisson for nonstationarity studies. Job sizes still come
	// from JobSize; Utilization is what the policy is told, and should be
	// set to Arrivals.MeanRate()·E[size]/Σspeeds for consistency.
	// Ignored when Replay is set.
	Arrivals ArrivalProcess
	// Faults, when non-nil and enabled, injects per-computer
	// failure/repair processes (see internal/faults). With Faults nil or
	// disabled the run is bit-identical to a build without the fault
	// subsystem: no extra random stream is derived and no extra events
	// are scheduled.
	Faults *faults.Config
	// Overload, when non-nil and enabled, activates the overload-
	// protection layer: admission control, bounded per-computer queues,
	// job deadlines, dispatcher timeout/retry with backoff, and
	// per-computer circuit breakers (see OverloadConfig). With Overload
	// nil or all-defaults the run is bit-identical to a build without the
	// overload subsystem.
	Overload *OverloadConfig
	// SampleInterval, when positive, records the number of jobs in the
	// system (admitted minus completed or dropped) every SampleInterval
	// seconds into Result.InSystemSeries — the direct way to watch queues
	// grow without bound at ρ ≥ 1. Zero disables sampling and schedules
	// no extra events.
	SampleInterval float64
	// Drift, when non-nil and enabled, perturbs the ground truth during
	// the run: arrival-rate schedules, speed steps, and one-shot
	// misestimation of the inputs the policy plans from (see
	// internal/drift). With Drift nil or disabled the run is
	// bit-identical to a build without the drift subsystem: no extra
	// random stream is derived and no extra events are scheduled.
	Drift *drift.Config
	// Adapt, when non-nil and enabled, runs the stability watchdog and
	// hysteretic re-planning loop (see AdaptConfig); the policy must be
	// Replannable. With Adapt nil or disabled the run is bit-identical
	// to a build without the adaptive subsystem.
	Adapt *AdaptConfig
	// Netfault, when non-nil and enabled, inserts the network/control-
	// plane fault layer between the dispatcher and the computers:
	// per-link dispatch latency, loss and duplication, dispatcher
	// crash/restart, partitions, and the ack/resubmission reliability
	// loop (see internal/netfault). With Netfault nil or disabled the
	// run is bit-identical to a build without the subsystem: no extra
	// random stream is derived and no extra events are scheduled.
	Netfault *netfault.Config
	// Ctrl, when non-nil and enabled, makes the control plane physical:
	// JIQ idle-token reports, jsq/pod(d) queue-length queries and
	// inter-dispatcher counter-sync frames travel over faulty links
	// (latency, loss, duplication, partitions), so state-querying
	// policies act on stale, lossy views and pay query round-trips in
	// dispatch latency (see internal/ctrlplane). With Ctrl nil or
	// disabled the run is bit-identical to a build without the
	// subsystem: no extra random stream is derived, no extra events are
	// scheduled, and the policies read the oracle StateView.
	Ctrl *ctrlplane.Config
}

// ReplayJob is one recorded arrival for trace-driven simulation.
type ReplayJob struct {
	// Arrival is the absolute arrival time in seconds.
	Arrival float64
	// Size is the job's service demand at speed 1.
	Size float64
}

// withDefaults returns a copy of c with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.JobSize == nil {
		c.JobSize = dist.PaperJobSize()
	}
	if c.ArrivalCV == 0 {
		c.ArrivalCV = 3.0
	}
	if c.Duration == 0 {
		if len(c.Replay) > 0 {
			c.Duration = c.Replay[len(c.Replay)-1].Arrival
		} else {
			c.Duration = 4.0e6
		}
	}
	switch {
	case c.WarmupFraction == 0:
		c.WarmupFraction = 0.25
	case c.WarmupFraction < 0:
		c.WarmupFraction = 0
	}
	if c.Drain == nil {
		d := true
		c.Drain = &d
	}
	return c
}

// validate reports configuration errors.
func (c Config) validate() error {
	if len(c.Speeds) == 0 {
		return errors.New("cluster: no computers")
	}
	for i, s := range c.Speeds {
		if !(s > 0) || math.IsInf(s, 0) {
			return fmt.Errorf("cluster: speed[%d] = %v invalid", i, s)
		}
	}
	if c.Utilization < 0 || math.IsNaN(c.Utilization) || math.IsInf(c.Utilization, 0) {
		return fmt.Errorf("cluster: utilization %v invalid (must be finite and non-negative)", c.Utilization)
	}
	if c.ArrivalCV < 1 {
		return fmt.Errorf("cluster: arrival CV %v < 1 not representable by H2", c.ArrivalCV)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("cluster: duration %v invalid", c.Duration)
	}
	if c.WarmupFraction < 0 || c.WarmupFraction >= 1 {
		return fmt.Errorf("cluster: warmup fraction %v outside [0,1)", c.WarmupFraction)
	}
	if c.Discipline == RR && !(c.Quantum > 0) {
		return fmt.Errorf("cluster: RR discipline requires positive quantum, got %v", c.Quantum)
	}
	for i, r := range c.Replay {
		if !(r.Size > 0) {
			return fmt.Errorf("cluster: replay job %d has non-positive size %v", i, r.Size)
		}
		if r.Arrival < 0 || (i > 0 && r.Arrival < c.Replay[i-1].Arrival) {
			return fmt.Errorf("cluster: replay arrivals not sorted ascending at index %d", i)
		}
	}
	if err := c.Faults.Validate(len(c.Speeds)); err != nil {
		return err
	}
	if err := c.Overload.Validate(); err != nil {
		return err
	}
	if c.SampleInterval < 0 || math.IsNaN(c.SampleInterval) || math.IsInf(c.SampleInterval, 0) {
		return fmt.Errorf("cluster: sample interval %v invalid", c.SampleInterval)
	}
	if err := c.Drift.Validate(len(c.Speeds)); err != nil {
		return err
	}
	if c.Drift.Enabled() {
		if c.Drift.Arrival != nil && len(c.Replay) > 0 {
			return errors.New("cluster: arrival-rate drift cannot modulate a replayed trace")
		}
		if len(c.Drift.SpeedSteps) > 0 && c.Discipline != PS {
			return fmt.Errorf("cluster: speed drift requires the PS discipline, got %v", c.Discipline)
		}
	}
	if err := c.Adapt.Validate(); err != nil {
		return err
	}
	if err := c.Netfault.Validate(len(c.Speeds)); err != nil {
		return err
	}
	// The replica count is policy state the config cannot see; replica-
	// indexed sync partitions are range-checked by the CLI, which knows
	// -dispatchers.
	if err := c.Ctrl.Validate(len(c.Speeds), 0); err != nil {
		return err
	}
	return nil
}

// Lambda returns the system arrival rate implied by the configuration.
func (c Config) Lambda() float64 {
	cc := c.withDefaults()
	total := 0.0
	for _, s := range cc.Speeds {
		total += s
	}
	return cc.Utilization * total / cc.JobSize.Mean()
}

// Mu returns the base-line service rate 1/E[job size].
func (c Config) Mu() float64 {
	cc := c.withDefaults()
	return 1 / cc.JobSize.Mean()
}

// Context is the simulation context handed to a Policy at initialization.
type Context struct {
	// Engine is the run's event engine; policies may schedule events
	// (e.g. delayed load updates).
	Engine *sim.Engine
	// Speeds are the computers' relative speeds.
	Speeds []float64
	// Utilization is the true offered load ρ.
	Utilization float64
	// Lambda and Mu are the arrival and base-line service rates.
	Lambda, Mu float64
	// RNG is a dedicated random stream for the policy's own decisions.
	RNG *rng.Stream
	// Horizon is the run duration in simulated seconds; policies that
	// schedule recurring events (e.g. periodic dispatcher counter sync)
	// must stop at the horizon or a draining run would never finish.
	Horizon float64
}

// Policy is a job scheduling policy: it selects a target computer for each
// arriving job and observes departures.
type Policy interface {
	// Name identifies the policy in reports ("ORR", "WRAN", "LL", ...).
	Name() string
	// Init is called once per run before any job arrives.
	Init(ctx *Context) error
	// Select returns the index of the computer to run the job on. It is
	// called at the job's arrival time.
	Select(job *sim.Job) int
	// Departed notifies the policy that a job completed on its target
	// computer, at the engine's current time. Policies model their own
	// detection/update delays by scheduling events.
	Departed(job *sim.Job)
}

// FaultAware is implemented by policies that react to computer failures
// and repairs. The run calls UpSetChanged — after the configured
// detection lag — with the availability mask current at detection time;
// policies typically stop dispatching to down computers and may
// recompute their allocation over the survivors (sched.ReallocResolve).
// The run reuses the mask's backing array for the next call: a policy
// copies what it keeps.
type FaultAware interface {
	UpSetChanged(up []bool)
}

// StateView is the computer state a state-aware policy may observe at
// decision time — the query channel of the scalable-dispatch family
// (JSQ(d), biased power-of-d, JIQ). Queries read the live servers, so a
// policy that never queries costs nothing: the stateless policies keep
// their zero-query path untouched.
type StateView interface {
	// QueueLen returns the number of jobs at computer i (queued plus in
	// service) as the policy can best observe it. With the control
	// plane enabled this is a probe over a faulty link: the value may
	// be a stale cached observation or a pessimistic placeholder.
	QueueLen(i int) int
	// Age returns the age in seconds of the observation the last
	// QueueLen(i) was served from: 0 for a live read (the oracle view,
	// or an in-time probe), positive for a cached fallback, +Inf for a
	// computer never observed. A StateView is a snapshot with an age,
	// not an oracle.
	Age(i int) float64
	// N returns the number of computers.
	N() int
}

// StateAware is implemented by policies that query computer state at
// decision time. The run binds the view once the simulated computers
// exist — after Init, before the first arrival.
type StateAware interface {
	BindState(view StateView)
}

// CtrlAware is implemented by policies that can route their control
// traffic (idle tokens, state queries, counter-sync frames) through the
// physical control plane. The run calls BindCtrl — after Init, before
// BindState — only when Config.Ctrl is enabled; a policy that never
// receives it keeps the oracle state path.
type CtrlAware interface {
	BindCtrl(p *ctrlplane.Plane)
}

// DecisionCost is implemented by policies whose Select may wait on
// control-plane round-trips. TakeDecisionCost returns the wait in
// seconds accumulated by the most recent Select and resets it; the run
// delays the job's departure from the dispatcher by that much.
type DecisionCost interface {
	TakeDecisionCost() float64
}

// ctrlEventKind maps a control-plane message event to its probe kind.
func ctrlEventKind(kind ctrlplane.MsgEvent) probe.EventKind {
	switch kind {
	case ctrlplane.MsgTokenReport:
		return probe.EvTokenReport
	case ctrlplane.MsgTokenSpend:
		return probe.EvTokenSpend
	case ctrlplane.MsgTokenExpire:
		return probe.EvTokenExpire
	case ctrlplane.MsgQueryTimeout:
		return probe.EvQueryTimeout
	default:
		return probe.EvSyncFrame
	}
}

// ShardedPolicy is implemented by policies that route arrivals through
// K dispatcher replicas; the probe uses it to attribute each dispatch
// decision to the replica that made it (per-dispatcher series).
type ShardedPolicy interface {
	// Shards returns the number of dispatcher replicas K.
	Shards() int
	// LastShard returns the replica index of the most recent Select.
	LastShard() int
}

// serverStateView adapts the run's servers to the StateView queries.
type serverStateView []sim.Server

func (v serverStateView) QueueLen(i int) int { return v[i].InService() }
func (v serverStateView) Age(int) float64    { return 0 }
func (v serverStateView) N() int             { return len(v) }

// Result aggregates one run's statistics over the post-warm-up jobs.
type Result struct {
	// Policy is the policy name.
	Policy string
	// MeanResponseTime is the average of Completion − Arrival (seconds).
	MeanResponseTime float64
	// MeanResponseRatio is the average of response time / job size.
	MeanResponseRatio float64
	// Fairness is the standard deviation of the response ratio (§4.1);
	// smaller is better.
	Fairness float64
	// Jobs is the number of jobs included in the statistics.
	Jobs int64
	// JobFractions[i] is the fraction of counted jobs sent to computer i.
	JobFractions []float64
	// Utilizations[i] is busy time / observed time for computer i over
	// the whole run (including warm-up).
	Utilizations []float64
	// RatioP50, RatioP95 and RatioP99 are percentile estimates of the
	// response ratio distribution, from a log-binned histogram (an
	// extension beyond the paper's mean-based metrics).
	RatioP50, RatioP95, RatioP99 float64
	// Deviations holds the per-interval workload allocation deviations
	// when Config.DeviationInterval was set (Figure 2), measured against
	// the policy's own realized overall fractions unless the policy
	// provides target fractions.
	Deviations []float64
	// GeneratedJobs counts all arrivals, including warm-up.
	GeneratedJobs int64
	// Outcomes[o] counts every finalized job by terminal Outcome,
	// warm-up included (unlike the response-time statistics, which drop
	// the warm-up prefix). Length NumOutcomes. On a drained run every
	// arrival reaches exactly one outcome, so sum(Outcomes) ==
	// GeneratedJobs and FinalInSystem == 0 — the job-conservation
	// ledger the chaos harness (internal/chaos) asserts. Without Drain
	// the residual jobs at the horizon are unfinalized (FinalInSystem,
	// plus any arrivals parked in a crashed dispatcher's buffer).
	Outcomes []int64
	// FinalInSystem is the number of dispatched jobs still in the
	// system when the run ended (always 0 with Drain on).
	FinalInSystem int64
	// SimulatedTime is the time at which statistics collection ended.
	SimulatedTime float64
	// Overload holds the overload-protection counters and the admitted-job
	// response-time percentiles; nil unless Config.Overload was enabled.
	Overload *OverloadStats
	// InSystemSeries[k] is the number of jobs in the system at time
	// (k+1)·SampleInterval; nil unless Config.SampleInterval was set.
	InSystemSeries []int64
	// Adaptive holds the watchdog/re-planning counters and final
	// estimates; nil unless Config.Adapt was enabled.
	Adaptive *AdaptiveStats
	// Netfault holds the network/control-plane fault counters; nil
	// unless Config.Netfault was enabled.
	Netfault *NetfaultStats
	// Ctrl holds the control-plane message ledger (token, query and
	// sync counters); nil unless Config.Ctrl was enabled.
	Ctrl *ctrlplane.Stats

	// The remaining fields are populated only when Config.Faults enabled
	// failure injection (Availability is nil otherwise).

	// Availability[i] is the observed time-weighted fraction of the run
	// computer i was up.
	Availability []float64
	// Failures and Repairs count fault events across all computers.
	Failures, Repairs int64
	// JobsLost counts jobs discarded (fate Lost, or requeue budget
	// exhausted); JobsRequeued counts successful re-dispatches;
	// JobsRestarted and JobsResumed count jobs held at a failed computer
	// under the respective fates.
	JobsLost, JobsRequeued, JobsRestarted, JobsResumed int64
	// DegradedTime is the total time at least one computer was down.
	DegradedTime float64
	// DegradedJobs counts post-warm-up jobs that arrived while the
	// system was degraded; MeanResponseTimeDegraded and
	// MeanResponseRatioDegraded average over exactly those jobs.
	DegradedJobs                                        int64
	MeanResponseTimeDegraded, MeanResponseRatioDegraded float64
}

// FractionProvider is implemented by policies that know their target
// allocation fractions (static policies); the deviation tracker uses them
// as the expected vector. Policies without it (e.g. dynamic least-load)
// cannot be deviation-tracked.
type FractionProvider interface {
	Fractions() []float64
}

// deviationTracker implements the Figure 2 measurement: per-interval
// workload allocation deviation Σ(α_i − α'_i)².
type deviationTracker struct {
	expected []float64
	length   float64
	counts   []int64
	boundary float64
	devs     []float64
}

func newDeviationTracker(expected []float64, length float64) *deviationTracker {
	cp := make([]float64, len(expected))
	copy(cp, expected)
	return &deviationTracker{
		expected: cp,
		length:   length,
		counts:   make([]int64, len(expected)),
		boundary: length,
	}
}

func (d *deviationTracker) observe(t float64, target int) {
	for t >= d.boundary {
		d.close()
	}
	d.counts[target]++
}

func (d *deviationTracker) close() {
	total := int64(0)
	for _, c := range d.counts {
		total += c
	}
	dev := 0.0
	if total > 0 {
		for i, c := range d.counts {
			diff := d.expected[i] - float64(c)/float64(total)
			dev += diff * diff
		}
	}
	d.devs = append(d.devs, dev)
	for i := range d.counts {
		d.counts[i] = 0
	}
	d.boundary += d.length
}

func (d *deviationTracker) deviations(horizon float64) []float64 {
	for d.boundary <= horizon {
		d.close()
	}
	out := make([]float64, len(d.devs))
	copy(out, d.devs)
	return out
}

// Summary aggregates a metric across replications.
type Summary struct {
	Mean float64 // mean across replications
	CI95 float64 // 95% Student-t half-width
	N    int     // replications
}

// ReplicatedResult aggregates replications of one (config, policy) cell.
type ReplicatedResult struct {
	Policy            string
	MeanResponseTime  Summary
	MeanResponseRatio Summary
	Fairness          Summary
	// JobFractions[i] is the across-replication mean fraction of jobs on
	// computer i.
	JobFractions []float64
	// Utilizations[i] is the across-replication mean utilization.
	Utilizations []float64
	// Availability[i] is the across-replication mean observed
	// availability of computer i; nil when the runs had no fault
	// injection.
	Availability []float64
	// JobsLost and MeanResponseTimeDegraded summarize the fault metrics
	// across replications (zero-valued without fault injection).
	JobsLost                 Summary
	MeanResponseTimeDegraded Summary
	// Runs holds the individual run results, in replication order.
	Runs []*Result
}

// PolicyFactory builds a fresh policy instance for each replication (a
// policy instance is stateful and owned by one run).
type PolicyFactory func() Policy

// RunReplications executes reps independent runs — replication r uses seed
// Seed+r — in parallel (bounded by GOMAXPROCS) and aggregates the metrics.
func RunReplications(cfg Config, factory PolicyFactory, reps int) (*ReplicatedResult, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("cluster: reps = %d, must be positive", reps)
	}
	results := make([]*Result, reps)
	errs := make([]error, reps)
	sem := make(chan struct{}, maxParallel())
	var wg sync.WaitGroup
	for r := 0; r < reps; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := cfg
			c.Seed = cfg.Seed + uint64(r)
			results[r], errs[r] = Run(c, factory())
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return Aggregate(results)
}

// MaxParallel, when positive, caps the number of replications executing
// concurrently in RunReplications and RunUntilPrecision; zero (the
// default) means GOMAXPROCS. Each replication is fully deterministic in
// its seed, so results are independent of this setting — the golden
// tests pin it to several values to prove exactly that.
var MaxParallel int

// maxParallel bounds replication parallelism.
func maxParallel() int {
	if MaxParallel > 0 {
		return MaxParallel
	}
	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	return p
}

// RunUntilPrecision runs replications in batches until the 95% confidence
// interval of the mean response ratio is within relCI of its mean
// (relative half-width), or maxReps replications have run. It returns the
// aggregated result; Converged on the return reports whether the target
// was met. A minimum of 3 replications always runs.
//
// This is the sequential-stopping alternative to the paper's fixed 10
// replications: cheap cells stop early, noisy ones (heavy-tailed
// workloads at high load) get more repetitions.
func RunUntilPrecision(cfg Config, factory PolicyFactory, relCI float64, maxReps int) (*ReplicatedResult, bool, error) {
	if relCI <= 0 {
		return nil, false, fmt.Errorf("cluster: relCI %v must be positive", relCI)
	}
	if maxReps < 3 {
		return nil, false, fmt.Errorf("cluster: maxReps %d must be at least 3", maxReps)
	}
	var runs []*Result
	for rep := 0; rep < maxReps; {
		batch := maxParallel()
		if rep+batch > maxReps {
			batch = maxReps - rep
		}
		if rep == 0 && batch < 3 {
			batch = 3
		}
		results := make([]*Result, batch)
		errs := make([]error, batch)
		var wg sync.WaitGroup
		for k := 0; k < batch; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				c := cfg
				c.Seed = cfg.Seed + uint64(rep+k)
				results[k], errs[k] = Run(c, factory())
			}(k)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, false, err
			}
		}
		runs = append(runs, results...)
		rep += batch
		if rep < 3 {
			continue
		}
		agg, err := Aggregate(runs)
		if err != nil {
			return nil, false, err
		}
		m := agg.MeanResponseRatio
		if m.Mean != 0 && m.CI95/math.Abs(m.Mean) <= relCI {
			return agg, true, nil
		}
	}
	agg, err := Aggregate(runs)
	if err != nil {
		return nil, false, err
	}
	m := agg.MeanResponseRatio
	return agg, m.Mean != 0 && m.CI95/math.Abs(m.Mean) <= relCI, nil
}

// Aggregate combines per-run results into a ReplicatedResult. All runs
// must have the same number of computers.
func Aggregate(runs []*Result) (*ReplicatedResult, error) {
	if len(runs) == 0 {
		return nil, errors.New("cluster: no runs to aggregate")
	}
	n := len(runs[0].JobFractions)
	var rt, rr, fair, lost, rtDeg stats.Sample
	fractions := make([]float64, n)
	utils := make([]float64, n)
	withFaults := runs[0].Availability != nil
	var avail []float64
	if withFaults {
		avail = make([]float64, n)
	}
	for _, run := range runs {
		if len(run.JobFractions) != n {
			return nil, fmt.Errorf("cluster: inconsistent computer counts (%d vs %d)", len(run.JobFractions), n)
		}
		rt.Add(run.MeanResponseTime)
		rr.Add(run.MeanResponseRatio)
		fair.Add(run.Fairness)
		for i := 0; i < n; i++ {
			fractions[i] += run.JobFractions[i] / float64(len(runs))
			utils[i] += run.Utilizations[i] / float64(len(runs))
		}
		if withFaults {
			if run.Availability == nil {
				return nil, errors.New("cluster: mixing fault-injected and fault-free runs")
			}
			lost.Add(float64(run.JobsLost))
			rtDeg.Add(run.MeanResponseTimeDegraded)
			for i := 0; i < n; i++ {
				avail[i] += run.Availability[i] / float64(len(runs))
			}
		}
	}
	agg := &ReplicatedResult{
		Policy:            runs[0].Policy,
		MeanResponseTime:  Summary{rt.Mean(), rt.CI95(), rt.N()},
		MeanResponseRatio: Summary{rr.Mean(), rr.CI95(), rr.N()},
		Fairness:          Summary{fair.Mean(), fair.CI95(), fair.N()},
		JobFractions:      fractions,
		Utilizations:      utils,
		Runs:              runs,
	}
	if withFaults {
		agg.Availability = avail
		agg.JobsLost = Summary{lost.Mean(), lost.CI95(), lost.N()}
		agg.MeanResponseTimeDegraded = Summary{rtDeg.Mean(), rtDeg.CI95(), rtDeg.N()}
	}
	return agg, nil
}
