package cluster

import (
	"fmt"
	"math"

	"heterosched/internal/ctrlplane"
	"heterosched/internal/dist"
	"heterosched/internal/drift"
	"heterosched/internal/faults"
	"heterosched/internal/probe"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
	"heterosched/internal/stats"
)

// run is the state of one simulation run: configuration, engine, policy,
// servers, job arena, statistics and the optional layer runtimes (nil
// when a layer is off). Every dispatch path — first dispatch, failure
// requeue, netfault redispatch, overload retry — goes through its one
// dispatch method. The overload and netfault runtimes embed the run they
// belong to and call it directly.
//
// Every optional layer is gated on its enabled config, so a layer that
// is off derives no random stream, schedules no event and leaves the
// dispatch path untouched: layers-off runs stay bit-identical.
type run struct {
	cfg    Config
	n      int
	en     *sim.Engine
	ctx    *Context
	policy Policy
	warmup float64

	servers []sim.Server
	// arena is the run's job allocator: every Job comes from it and is
	// recycled at its terminal event, so the steady-state arrival and
	// departure cycle allocates nothing. Its generation check makes
	// JobRef-guarded timers safe: a timer outliving its job loads a dead
	// handle instead of a recycled Job.
	arena *sim.JobArena

	inj   *faults.Injector
	ov    *overloadRun
	nf    *netfaultRun
	ad    *adaptiveRun
	plane *ctrlplane.Plane
	// cost is the policy's control-plane query wait; nil without the
	// plane.
	cost DecisionCost
	dev  *deviationTracker
	// faultsUp is the fault up-set as of the last detection, DetectionLag
	// after the edge that caused it; nil means all up.
	faultsUp []bool

	// pb is nil unless the probe is enabled. shards attributes decisions
	// to K>1 dispatcher replicas; maskBuf backs the up-set mask of
	// dispatch events (nil when events are off).
	pb      *probe.Probe
	spansOn bool
	shards  ShardedPolicy
	maskBuf []byte

	arrivals              ArrivalProcess
	arrStream, sizeStream *rng.Stream
	// arriveFn is the arrival chain's event, bound once so that the
	// chain allocates nothing per job; replayIdx walks a replayed trace.
	arriveFn  func()
	replayIdx int

	respTime, respRatio, respTimeDeg, respRatioDeg stats.Accumulator
	ratioHist                                      *stats.Histogram
	counts, outcomes, samples                      []int64
	observed, generated, inSystem                  int64

	// laterFree recycles the run's deferred job actions (see delayed).
	laterFree []*delayed
	// upBuf backs the up-set notifyUpSet hands the policy.
	upBuf []bool
}

// Run executes one simulation run of cfg under the given policy.
func Run(cfg Config, policy Policy) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r, err := newRun(cfg, policy)
	if err != nil {
		return nil, err
	}
	// Run to the horizon, then (draining) let in-flight jobs finish. The
	// pending arrival event beyond the horizon self-cancels via the time
	// check.
	r.en.RunUntil(cfg.Duration)
	if *cfg.Drain {
		r.en.RunUntil(math.Inf(1))
	}
	return r.result(), nil
}

// newRun constructs a run and wires its layers. The order of every
// stream derivation and setup Schedule call is part of the bit-identity
// contract: policy Init, speed steps, fault injector start, netfault
// start, adaptive start, arrival chain, probe sampling, then in-system
// sampling.
func newRun(cfg Config, policy Policy) (*run, error) {
	n := len(cfg.Speeds)
	root := rng.New(cfg.Seed)
	r := &run{cfg: cfg, n: n, en: &sim.Engine{}, policy: policy}
	r.arrStream = root.Derive("arrivals")
	r.sizeStream = root.Derive("sizes")
	policyStream := root.Derive("policy")

	lambda := cfg.Lambda()
	mu := 1 / cfg.JobSize.Mean()
	if len(cfg.Replay) > 0 && cfg.Duration > 0 {
		// Trace-driven runs: report the trace's empirical rates to the
		// policy.
		lambda = float64(len(cfg.Replay)) / cfg.Duration
		var total float64
		for _, rj := range cfg.Replay {
			total += rj.Size
		}
		mu = 1 / (total / float64(len(cfg.Replay)))
	}
	r.arrivals = cfg.Arrivals
	if r.arrivals == nil {
		var interArrival dist.Distribution
		if cfg.ExponentialArrivals || cfg.ArrivalCV == 1 {
			interArrival = dist.NewExponential(1 / lambda)
		} else {
			interArrival = dist.FitHyperExp2(1/lambda, cfg.ArrivalCV)
		}
		r.arrivals = RenewalProcess{Gap: interArrival}
	} else if len(cfg.Replay) == 0 {
		if v, ok := r.arrivals.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				return nil, err
			}
		}
		lambda = r.arrivals.MeanRate()
	}

	var dr *drift.Config
	if cfg.Drift.Enabled() {
		dr = cfg.Drift
		if dr.Arrival != nil {
			// The schedule changes the truth the run evolves under;
			// lambda (the belief reported to the policy) stays the base
			// rate the plan would be built from.
			r.arrivals = drift.Modulated{Base: r.arrivals, Schedule: dr.Arrival}
		}
	}

	r.ctx = &Context{
		Engine:      r.en,
		Speeds:      cfg.Speeds,
		Utilization: cfg.Utilization,
		Lambda:      lambda,
		Mu:          mu,
		RNG:         policyStream,
		Horizon:     cfg.Duration,
	}
	if dr != nil && dr.Misest.Enabled() {
		// One-shot misestimation: the policy plans from perturbed inputs
		// while the simulated world keeps the true values.
		rhoHat, speedsHat := dr.Misest.Apply(cfg.Utilization, cfg.Speeds, root.Derive("drift.misest"))
		r.ctx.Utilization = rhoHat
		r.ctx.Speeds = speedsHat
		sumHat := 0.0
		for _, s := range speedsHat {
			sumHat += s
		}
		r.ctx.Lambda = rhoHat * sumHat * mu
	}
	if err := policy.Init(r.ctx); err != nil {
		return nil, fmt.Errorf("cluster: policy %s init: %w", policy.Name(), err)
	}
	r.warmup = cfg.Duration * cfg.WarmupFraction
	r.arena = sim.NewJobArena()

	if cfg.Overload.Enabled() {
		ov, err := newOverloadRun(r, cfg.Overload, root)
		if err != nil {
			return nil, err
		}
		r.ov = ov
	}
	if cfg.Probe.Enabled() {
		r.pb = cfg.Probe
		r.pb.Start(n, 0)
		// Span layer: per-job response-time decomposition.
		r.spansOn = r.pb.SpansOn()
		if r.spansOn {
			r.pb.StartSpans(cfg.Speeds, terminalCauses())
		}
	}
	if cfg.Netfault.Enabled() {
		r.nf = newNetfaultRun(r, cfg.Netfault, root)
		if r.pb != nil {
			r.pb.StartNetfault(0)
		}
	}
	if cfg.Ctrl.Enabled() {
		r.plane = ctrlplane.NewPlane(r.en, cfg.Ctrl, n, root, cfg.Duration)
		if pb := r.pb; pb != nil {
			pb.StartCtrl(0)
			r.plane.SetHooks(ctrlplane.Hooks{
				Event: func(t float64, kind ctrlplane.MsgEvent, target int, cause string, value float64) {
					pb.Emit(probe.Event{T: t, Kind: ctrlEventKind(kind), Target: target, Cause: cause, Value: value})
				},
				InFlight:  pb.SetCtrlInFlight,
				Staleness: pb.NoteCtrlStaleness,
			})
		}
	}

	// Response ratios range from 1/maxSpeed (an undisturbed job on the
	// fastest computer) to arbitrarily large under congestion; log bins
	// cover the practical range for percentile estimates.
	r.ratioHist = stats.NewLogHistogram(1e-3, 1e6, 360)
	r.counts = make([]int64, n)
	r.outcomes = make([]int64, numOutcomes)
	if err := r.buildServers(dr); err != nil {
		return nil, err
	}

	// Bind the control plane before the state view: a CtrlAware policy
	// re-routes its token traffic and replaces its replicas' oracle
	// views with the plane's probing views during BindState. The plane
	// answers probes that physically arrive from the live servers.
	if r.plane != nil {
		r.plane.BindSource(serverStateView(r.servers))
		if ca, ok := policy.(CtrlAware); ok {
			ca.BindCtrl(r.plane)
		}
		if dc, ok := policy.(DecisionCost); ok {
			r.cost = dc
		}
	}
	// State-aware policies (the scalable-dispatch family) get the queue
	// view once the servers exist, before the first arrival.
	if sa, ok := policy.(StateAware); ok {
		sa.BindState(serverStateView(r.servers))
	}
	if r.pb != nil {
		if sp, ok := policy.(ShardedPolicy); ok && sp.Shards() > 1 {
			r.pb.StartShards(sp.Shards())
			r.shards = sp
		}
	}
	if cfg.DeviationInterval > 0 {
		fp, ok := policy.(FractionProvider)
		if !ok {
			return nil, fmt.Errorf("cluster: policy %s cannot provide fractions for deviation tracking", policy.Name())
		}
		r.dev = newDeviationTracker(fp.Fractions(), cfg.DeviationInterval)
	}

	if cfg.Faults.Enabled() {
		if err := r.startFaults(root); err != nil {
			return nil, err
		}
	}
	if r.pb != nil && r.pb.EventsOn() {
		r.maskBuf = make([]byte, n)
	}
	if r.nf != nil {
		r.nf.start()
	}
	if cfg.Adapt.Enabled() {
		ad, err := newAdaptiveRun(cfg.Adapt, r.en, cfg.Speeds, r.servers, policy, r.ctx.Utilization, &r.inSystem)
		if err != nil {
			return nil, err
		}
		r.ad = ad
		ad.bindProbe(r.pb)
		ad.start(cfg.Duration)
	}
	r.startArrivals()
	if r.pb != nil && r.pb.SampleDT() > 0 {
		// Cadence sampling of queue lengths, utilization deltas and the
		// in-system count.
		qls := make([]int, n)
		busy := make([]float64, n)
		r.every(r.pb.SampleDT(), func() {
			for i, s := range r.servers {
				qls[i] = s.InService()
				busy[i] = s.BusyTime()
			}
			r.pb.Sample(r.en.Now(), qls, busy, r.inSystem)
		})
	}
	if cfg.SampleInterval > 0 {
		r.every(cfg.SampleInterval, func() { r.samples = append(r.samples, r.inSystem) })
	}
	return r, nil
}

// buildServers creates one server per computer under the configured
// discipline, wrapped in a bounded queue when the overload layer caps
// it, and schedules the drift layer's speed steps.
func (r *run) buildServers(dr *drift.Config) error {
	// overloadServer is what the overload layer needs from a server:
	// eviction (shared with the fault injector) and single-job removal.
	type overloadServer interface {
		sim.Preemptable
		sim.Removable
	}
	ov := r.ov
	capped := ov != nil && r.cfg.Overload.QueueCap > 0
	if ov != nil {
		ov.removers = make([]sim.Removable, r.n)
	}
	// Speed drift needs the underlying PS servers (validate enforces the
	// PS discipline when steps are configured).
	var psBases []*sim.PSServer
	if dr != nil && len(dr.SpeedSteps) > 0 {
		psBases = make([]*sim.PSServer, r.n)
	}
	r.servers = make([]sim.Server, r.n)
	depart := r.depart
	for i, s := range r.cfg.Speeds {
		dep := depart
		var bounded *sim.Bounded
		if capped {
			// The bounded wrapper must see the departure before the run
			// statistics so its occupancy is current.
			dep = func(j *sim.Job) {
				bounded.NoteDeparture(j)
				depart(j)
			}
		}
		var base overloadServer
		switch r.cfg.Discipline {
		case PS:
			base = sim.NewPSServer(r.en, s, dep)
		case RR:
			base = sim.NewRRServer(r.en, s, r.cfg.Quantum, dep)
		case FCFS:
			base = sim.NewFCFSServer(r.en, s, dep)
		default:
			return fmt.Errorf("cluster: unknown discipline %v", r.cfg.Discipline)
		}
		if psBases != nil {
			psBases[i] = base.(*sim.PSServer)
		}
		r.servers[i] = base
		if capped {
			idx := i
			bounded = sim.NewBounded(base, r.cfg.Overload.QueueCap, r.cfg.Overload.Drop,
				func(j *sim.Job) { ov.shed(idx, j) })
			r.servers[i] = bounded
		}
		if ov != nil {
			ov.removers[i] = r.servers[i].(sim.Removable)
		}
	}
	if psBases == nil {
		return nil
	}
	for _, step := range dr.SpeedSteps {
		step := step
		r.en.Schedule(step.At, func() {
			if step.Computer >= 0 {
				psBases[step.Computer].SetSpeed(r.cfg.Speeds[step.Computer] * step.Factor)
				return
			}
			for i, ps := range psBases {
				ps.SetSpeed(r.cfg.Speeds[i] * step.Factor)
			}
		})
	}
	return nil
}

// startFaults builds and starts the failure injector.
func (r *run) startFaults(root *rng.Stream) error {
	preempt := make([]sim.Preemptable, r.n)
	for i, s := range r.servers {
		p, ok := s.(sim.Preemptable)
		if !ok {
			return fmt.Errorf("cluster: %v servers do not support eviction", r.cfg.Discipline)
		}
		preempt[i] = p
	}
	// A fault edge reaches a fault-aware policy once it is detected,
	// DetectionLag later; detect is bound once so edges allocate no
	// closure.
	detect := r.detectFaults
	edge := func(i int, up bool) {
		r.noteFaultEdge(i, up)
		if _, ok := r.policy.(FaultAware); !ok {
			return
		}
		if lag := r.cfg.Faults.DetectionLag; lag > 0 {
			r.en.ScheduleAfter(lag, detect)
		} else {
			detect()
		}
	}
	hooks := faults.Hooks{
		OnFail:   func(i int) { edge(i, false) },
		OnRepair: func(i int) { edge(i, true) },
		Requeue:  r.requeue,
		OnLost:   func(j *sim.Job) { r.lose(j, OutcomeLostFailure) },
	}
	if r.pb != nil {
		hooks.OnEnterService = r.noteServe
		hooks.OnEvict = func(i int, j *sim.Job) {
			r.jobEvent(probe.EvEvict, i, j)
			if r.spansOn {
				r.pb.SpanEvict(i, j, r.en.Now())
			}
		}
		hooks.OnResume = func(i int, j *sim.Job) {
			r.jobEvent(probe.EvResume, i, j)
			if r.spansOn {
				r.pb.SpanServe(i, j, r.en.Now())
			}
		}
	}
	inj, err := faults.NewInjector(r.en, r.cfg.Faults, preempt, root.Derive("faults"), r.cfg.Duration, hooks)
	if err != nil {
		return err
	}
	r.inj = inj
	inj.Start()
	return nil
}

// startArrivals schedules the first arrival: the next recorded job of a
// replayed trace (one event ahead, to keep the heap small), or the
// arrival process (default: a renewal process with the configured
// inter-arrival distribution) with sampled sizes.
func (r *run) startArrivals() {
	if len(r.cfg.Replay) > 0 {
		r.arriveFn = r.replayArrive
		if r.cfg.Replay[0].Arrival <= r.cfg.Duration {
			r.en.Schedule(r.cfg.Replay[0].Arrival, r.arriveFn)
		}
		return
	}
	r.arriveFn = r.arrive
	r.en.Schedule(r.arrivals.Next(r.en.Now(), r.arrStream), r.arriveFn)
}

// arrive admits one synthetic arrival and schedules the next; admission
// closes at the horizon.
func (r *run) arrive() {
	if r.en.Now() > r.cfg.Duration {
		return
	}
	r.admit(r.cfg.JobSize.Sample(r.sizeStream))
	r.en.Schedule(r.arrivals.Next(r.en.Now(), r.arrStream), r.arriveFn)
}

// replayArrive admits the next recorded job and schedules the one after.
func (r *run) replayArrive() {
	rj := r.cfg.Replay[r.replayIdx]
	r.replayIdx++
	r.admit(rj.Size)
	if r.replayIdx < len(r.cfg.Replay) && r.cfg.Replay[r.replayIdx].Arrival <= r.cfg.Duration {
		r.en.Schedule(r.cfg.Replay[r.replayIdx].Arrival, r.arriveFn)
	}
}

// every runs fn at dt, 2·dt, ... up to the horizon; the chain stops
// there so a draining run finishes.
func (r *run) every(dt float64, fn func()) {
	var tick func(k int)
	tick = func(k int) {
		t := float64(k) * dt
		if t > r.cfg.Duration {
			return
		}
		r.en.Schedule(t, func() {
			fn()
			tick(k + 1)
		})
	}
	tick(1)
}

// admit creates one job of the given size at the current time and hands
// it to the dispatcher. A recycled Job is field-identical to a fresh one
// (Put zeroes every exported field), so reuse cannot change results.
func (r *run) admit(size float64) {
	now := r.en.Now()
	r.generated++
	if r.ad != nil {
		r.ad.noteArrival(now, size)
	}
	j := r.arena.Get()
	j.ID = r.generated
	j.Size = size
	j.Arrival = now
	j.Target = -1
	if r.pb != nil {
		r.pb.Emit(probe.Event{T: now, Kind: probe.EvArrival, Job: j.ID, Target: -1})
		if r.spansOn {
			r.pb.SpanAdmit(j, now)
		}
	}
	if r.nf != nil && r.nf.interceptArrival(j) {
		return // dropped, buffered or failed over while down
	}
	r.routeJob(j)
}

// routeJob runs a job through the dispatcher proper: admission control,
// then its first dispatch. Called at arrival time normally, and at
// restart time for jobs buffered while the dispatcher was down (hence
// the en.Now()/j.Arrival distinction: events are stamped now,
// statistics key on the arrival).
func (r *run) routeJob(j *sim.Job) {
	if r.ov != nil && !r.ov.admitJob(j) {
		r.finalize(j, OutcomeRejectedAdmission)
		r.releaseJob(j)
		return
	}
	r.addInSystem(1)
	r.dispatch(j, true)
}

// dispatch routes one job by the policy (Algorithm 2) and sends it. With
// the overload layer on, a half-open breaker first claims the job as its
// probe, and after selection the breaker gate, reject-when-full and the
// timeout apply. first marks the scheduler's first decision for this job
// (counted in job fractions and deviation tracking); failure requeues,
// netfault redispatches and overload retries pass false.
func (r *run) dispatch(j *sim.Job, first bool) {
	if j.Killed {
		return // condemned by its deadline while waiting for this retry
	}
	target := -1
	if r.ov != nil {
		target = r.ov.probeTarget(j)
	}
	if target < 0 {
		target = r.policy.Select(j)
		if target < 0 || target >= r.n {
			panic(fmt.Sprintf("cluster: policy %s selected invalid computer %d", r.policy.Name(), target))
		}
	}
	j.Target = target
	if first {
		r.firstDispatch(j, target)
	}
	if r.pb != nil && !j.Finalized {
		r.pb.Emit(probe.Event{T: r.en.Now(), Kind: probe.EvDispatch, Job: j.ID, Target: target, Attempt: j.Attempts + j.Retries, Mask: r.mask()})
	}
	if r.ov != nil && !r.ov.gate(j, target) {
		return
	}
	r.send(target, j)
}

// firstDispatch books the scheduler's first routing decision for a job:
// job fractions and deviation tracking, the probe's per-computer arrival
// streams, and the degraded mark. Only decisions of the primary
// dispatcher are attributed to a replica; the netfault failover backup
// routes while it is down.
func (r *run) firstDispatch(j *sim.Job, target int) {
	if j.Arrival >= r.warmup {
		r.counts[target]++
		r.observed++
	}
	if r.dev != nil {
		r.dev.observe(j.Arrival, target)
	}
	if r.pb != nil {
		r.pb.NoteSubstream(target, j.Arrival)
		if r.shards != nil && (r.nf == nil || r.nf.online) {
			r.pb.NoteShard(r.shards.LastShard(), j.Arrival)
		}
	}
	if r.inj != nil && r.inj.AnyDown() {
		j.Degraded = true
	}
}

// failoverSend routes a job chosen by the netfault failover backup. The
// backup's decision is the job's first dispatch and enters the books like
// a policy decision, but bypasses admission control and deadline stamping
// (the backup is a last-resort router, not a dispatcher), and the send is
// untracked: the client timeout is its only safety net.
func (r *run) failoverSend(j *sim.Job, target int) {
	j.Target = target
	r.firstDispatch(j, target)
	if r.pb != nil {
		r.pb.Emit(probe.Event{T: r.en.Now(), Kind: probe.EvDispatch, Job: j.ID, Target: target, Cause: "failover", Mask: r.mask()})
	}
	r.addInSystem(1)
	if r.spansOn {
		r.pb.SpanSend(j, r.en.Now())
	}
	r.nf.send(target, j, false)
}

// requeue re-dispatches a job evicted by its computer's failure. It goes
// back through the policy but does not re-enter the job-fraction,
// deviation or arrival counts.
func (r *run) requeue(j *sim.Job) {
	if r.nf != nil {
		// The job verifiably left its failed computer: clear the delivery
		// state so its re-dispatch is not deduplicated.
		r.nf.reclaim(j)
	}
	if r.ov != nil {
		// A half-open probe evicted by its computer's failure is a failed
		// probe: record the outcome against the probed breaker before the
		// job re-enters the pool as a normal job — otherwise it would
		// carry its probe mark to another computer and close the wrong
		// breaker on completion, leaving the probed one stuck half-open.
		r.ov.probeFailed(j)
	}
	r.dispatch(j, false)
}

// send moves a dispatched job off the dispatcher towards computer
// target: the span's hop onto the network, then the policy's
// control-plane query wait, then the link — netfault transit when that
// layer is on, else straight delivery.
func (r *run) send(target int, j *sim.Job) {
	if r.spansOn {
		r.pb.SpanSend(j, r.en.Now())
	}
	if r.cost != nil {
		if d := r.cost.TakeDecisionCost(); d > 0 {
			// The job is held across simulated time, where a deadline or
			// timeout can reach a terminal outcome first and recycle it:
			// a dead handle drops the delivery.
			m := r.later(endHold)
			m.ref, m.target = r.arena.Ref(j), target
			r.en.ScheduleAfter(d, m.fire)
			return
		}
	}
	r.transmit(target, j)
}

// endHold transmits a job at the end of its decision-cost hold.
func endHold(r *run, m *delayed) {
	if j, ok := m.ref.Load(); ok && !j.Finalized {
		r.transmit(m.target, j)
	}
}

// transmit puts a job on computer target's link.
func (r *run) transmit(target int, j *sim.Job) {
	if r.nf != nil {
		r.nf.send(target, j, true)
		return
	}
	r.deliver(target, j)
}

// deliver physically lands a job at computer target: through the fault
// injector when one is active, else straight into the server. It is the
// end of every dispatch path.
func (r *run) deliver(target int, j *sim.Job) {
	now := r.en.Now()
	if r.pb != nil {
		r.pb.NoteDelivery(target, now)
		if r.spansOn {
			r.pb.SpanArrive(target, j, now)
		}
	}
	if r.inj != nil {
		r.inj.Arrive(target, j)
	} else {
		if r.pb != nil {
			r.noteServe(target, j)
		}
		r.servers[target].Arrive(j)
	}
	if r.pb != nil {
		r.pb.SetQueueLen(now, target, r.servers[target].InService())
	}
}

// depart is every server's completion callback.
func (r *run) depart(j *sim.Job) {
	if r.pb != nil && j.Target >= 0 {
		r.pb.SetQueueLen(r.en.Now(), j.Target, r.servers[j.Target].InService())
	}
	if r.ov != nil {
		if !r.ov.preDepart(j) {
			// A condemned job's completion: the deadline kill already
			// counted it out of the system and the statistics.
			r.releaseJob(j)
			return
		}
	} else {
		r.policy.Departed(j)
	}
	if r.ad != nil {
		r.ad.noteCompletion(j)
	}
	r.addInSystem(-1)
	outcome := OutcomeCompleted
	if j.Deadline > 0 && j.Completion > j.Deadline {
		outcome = OutcomeLate
	}
	r.finalize(j, outcome)
	if j.Arrival >= r.warmup {
		r.respTime.Add(j.ResponseTime())
		r.respRatio.Add(j.ResponseRatio())
		r.ratioHist.Add(j.ResponseRatio())
		if j.Degraded {
			r.respTimeDeg.Add(j.ResponseTime())
			r.respRatioDeg.Add(j.ResponseRatio())
		}
		if r.cfg.OnDeparture != nil {
			r.cfg.OnDeparture(j)
		}
	}
	r.releaseJob(j)
}

// lose ends a job the fault or network layer discarded. A job the
// deadline already condemned was finalized and counted out of the system
// by deadlineExpire; surfacing it later only hands back the Job for
// recycling — decrementing again would drive the in-system count
// negative.
func (r *run) lose(j *sim.Job, o Outcome) {
	if r.ov != nil {
		r.ov.jobLost(j)
	}
	if !j.Finalized {
		r.addInSystem(-1)
		r.finalize(j, o)
	}
	r.releaseJob(j)
}

// finalize records a job's terminal outcome exactly once: the probe's
// terminal lifecycle event (every job) and cfg.OnFinal (post-warm-up
// jobs, consistent with OnDeparture). Overlapping layers may race to a
// job's end — a deadline kill followed by the held job's eventual
// completion, a shed of an already-condemned job — so the Finalized flag
// arbitrates.
func (r *run) finalize(j *sim.Job, o Outcome) {
	if j.Finalized {
		return
	}
	j.Finalized = true
	r.outcomes[o]++
	if r.nf != nil {
		r.nf.jobDone(j)
	}
	if r.pb != nil {
		now := r.en.Now()
		kind, cause := o.probeEvent()
		r.pb.Emit(probe.Event{T: now, Kind: kind, Job: j.ID, Target: j.Target, Cause: cause, Attempt: j.Attempts + j.Retries})
		if r.spansOn {
			// Close the job's span before OnFinal so the callback can
			// fetch the decomposition via LastFinal. counted mirrors the
			// respTime filter exactly: completed jobs arriving after
			// warmup are the ones T̄ averages.
			r.pb.SpanFinal(j, cause, o.Completed(), o.Completed() && j.Arrival >= r.warmup, now)
		}
	}
	if r.cfg.OnFinal != nil && j.Arrival >= r.warmup {
		r.cfg.OnFinal(j, o)
	}
}

// delayed is one deferred action on a job: a netfault transit copy, ack,
// backoff resend or client rescue, an overload retry backoff, or a
// decision-cost hold. None is ever cancelled, so each fires exactly once:
// it runs act and returns to the run's free list. fire is bound once,
// when the action is first built, so a steady-state deferral allocates
// nothing (the free-list pattern of ctrlplane's msg).
type delayed struct {
	// act is a package-level function, so setting it allocates nothing;
	// it reads the fields its scheduler filled in.
	act           func(*run, *delayed)
	ref           sim.JobRef
	id            int64
	target, epoch int
	fire          func()
}

// later returns a recycled deferred action that runs act when its fire
// callback, scheduled by the caller, fires.
func (r *run) later(act func(*run, *delayed)) *delayed {
	var m *delayed
	if n := len(r.laterFree); n > 0 {
		m = r.laterFree[n-1]
		r.laterFree = r.laterFree[:n-1]
	} else {
		m = &delayed{}
		m.fire = func() {
			m.act(r, m)
			m.act, m.ref = nil, sim.JobRef{}
			r.laterFree = append(r.laterFree, m)
		}
	}
	m.act = act
	return m
}

// jobTimer is one kind of cancellable timer a job owns: the overload
// layer's deadline kill or dispatch timeout, or the netfault layer's ack
// timeout. Its callback is bound once per arena job object and reused by
// every job the object carries, so arming one allocates nothing. The
// timer's handle lives in its job (DeadlineEvent, TimeoutEvent,
// AckEvent), every re-arm cancels the previous timer first, and
// releaseJob never recycles a job with an armed timer: an object has at
// most one pending timer of each kind, and the ref stored when it was
// armed is that timer's own.
type jobTimer struct {
	arena  *sim.JobArena
	expire func(*sim.Job)
	// fire and refs are indexed by JobArena.Slot.
	fire []func()
	refs []sim.JobRef
}

// arm returns the callback to schedule for j's timer of this kind.
func (t *jobTimer) arm(j *sim.Job) func() {
	s := t.arena.Slot(j)
	for len(t.fire) <= s {
		t.fire = append(t.fire, nil)
		t.refs = append(t.refs, sim.JobRef{})
	}
	if t.fire[s] == nil {
		t.fire[s] = func() {
			if j, ok := t.refs[s].Load(); ok {
				t.expire(j)
			}
		}
	}
	t.refs[s] = t.arena.Ref(j)
	return t.fire[s]
}

// releaseJob recycles a terminally disposed job into the arena; it is the
// single recycling gate. Every terminal path cancels the job's timers
// first, and a job with a live timer must not be recycled.
func (r *run) releaseJob(j *sim.Job) {
	if j.TimeoutEvent.Active() || j.DeadlineEvent.Active() || j.AckEvent.Active() {
		return // a pending timer still references the job
	}
	r.arena.Put(j)
}

// addInSystem moves the in-system count by d and mirrors it into the
// probe's series.
func (r *run) addInSystem(d int64) {
	r.inSystem += d
	if r.pb != nil {
		r.pb.SetInSystem(r.en.Now(), r.inSystem)
	}
}

// up reports whether computer i is reachable right now: not failed, its
// dispatch link uncut and its breaker closed. It is the live state the
// dispatch events' mask and the failover backup see; a fault-aware policy
// sees the detected up-set of notifyUpSet instead.
func (r *run) up(i int) bool {
	return (r.inj == nil || r.inj.Up(i)) && (r.nf == nil || r.nf.linkUp(i)) && r.ov.breakerClosed(i)
}

// mask renders the live up-set for a dispatch event; empty when events
// are off.
func (r *run) mask() string {
	if r.maskBuf == nil {
		return ""
	}
	for i := range r.maskBuf {
		r.maskBuf[i] = '0'
		if r.up(i) {
			r.maskBuf[i] = '1'
		}
	}
	return string(r.maskBuf)
}

// notifyUpSet hands a fault-aware policy the up-set as the dispatcher
// knows it: the fault state as of the last detection (faultsUp), links
// uncut and breakers closed. It runs on every detected fault edge,
// partition edge and breaker trip or close.
func (r *run) notifyUpSet() {
	fa, ok := r.policy.(FaultAware)
	if !ok {
		return
	}
	if r.upBuf == nil {
		r.upBuf = make([]bool, r.n)
	}
	up := r.upBuf
	for i := range up {
		up[i] = (r.faultsUp == nil || r.faultsUp[i]) && (r.nf == nil || r.nf.linkUp(i)) && r.ov.breakerClosed(i)
	}
	fa.UpSetChanged(up)
}

// noteFaultEdge records computer i failing or being repaired in the
// probe.
func (r *run) noteFaultEdge(i int, up bool) {
	if r.pb == nil {
		return
	}
	now := r.en.Now()
	kind := probe.EvFail
	if up {
		kind = probe.EvRepair
	}
	r.pb.SetUp(now, i, up)
	r.pb.SetQueueLen(now, i, r.servers[i].InService())
	r.pb.Emit(probe.Event{T: now, Kind: kind, Target: i})
}

// detectFaults snapshots the fault up-set at detection time and notifies
// the policy; flaps shorter than the detection lag collapse into one
// observation of the final state.
func (r *run) detectFaults() {
	if r.faultsUp == nil {
		r.faultsUp = make([]bool, r.n)
	}
	for i := range r.faultsUp {
		r.faultsUp[i] = r.inj.Up(i)
	}
	r.notifyUpSet()
}

// jobEvent emits a lifecycle event for job j at computer i unless the
// job already reached its terminal event.
func (r *run) jobEvent(kind probe.EventKind, i int, j *sim.Job) {
	if !j.Finalized {
		r.pb.Emit(probe.Event{T: r.en.Now(), Kind: kind, Job: j.ID, Target: i})
	}
}

// noteServe records job j entering service at computer i.
func (r *run) noteServe(i int, j *sim.Job) {
	r.jobEvent(probe.EvServiceStart, i, j)
	if r.spansOn {
		r.pb.SpanServe(i, j, r.en.Now())
	}
}

// result closes the probe and assembles the run's Result.
func (r *run) result() *Result {
	endTime := math.Max(r.en.Now(), r.cfg.Duration)
	if r.pb != nil {
		r.pb.FinishRun(endTime)
	}
	res := &Result{
		Policy:            r.policy.Name(),
		MeanResponseTime:  r.respTime.Mean(),
		MeanResponseRatio: r.respRatio.Mean(),
		Fairness:          r.respRatio.PopStdDev(),
		Jobs:              r.respTime.N(),
		JobFractions:      make([]float64, r.n),
		Utilizations:      make([]float64, r.n),
		RatioP50:          r.ratioHist.Quantile(0.50),
		RatioP95:          r.ratioHist.Quantile(0.95),
		RatioP99:          r.ratioHist.Quantile(0.99),
		GeneratedJobs:     r.generated,
		Outcomes:          r.outcomes,
		FinalInSystem:     r.inSystem,
		SimulatedTime:     endTime,
		InSystemSeries:    r.samples,
	}
	for i := range r.servers {
		if r.observed > 0 {
			res.JobFractions[i] = float64(r.counts[i]) / float64(r.observed)
		}
		res.Utilizations[i] = r.servers[i].BusyTime() / endTime
	}
	if r.dev != nil {
		res.Deviations = r.dev.deviations(r.cfg.Duration)
	}
	if r.ov != nil {
		res.Overload = r.ov.finish()
	}
	if r.ad != nil {
		res.Adaptive = r.ad.finish()
	}
	if r.nf != nil {
		res.Netfault = r.nf.finish()
	}
	if r.plane != nil {
		res.Ctrl = r.plane.Finish()
	}
	if inj := r.inj; inj != nil {
		inj.Finish(endTime)
		res.Availability = make([]float64, r.n)
		for i := range res.Availability {
			res.Availability[i] = inj.Availability(i)
		}
		res.Failures = inj.Failures()
		res.Repairs = inj.Repairs()
		res.JobsLost = inj.JobsLost()
		res.JobsRequeued = inj.JobsRequeued()
		res.JobsRestarted = inj.JobsRestarted()
		res.JobsResumed = inj.JobsResumed()
		res.DegradedTime = inj.DegradedTime()
		res.DegradedJobs = r.respTimeDeg.N()
		res.MeanResponseTimeDegraded = r.respTimeDeg.Mean()
		res.MeanResponseRatioDegraded = r.respRatioDeg.Mean()
	}
	return res
}
