package sched

import (
	"reflect"
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/netfault"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
)

// TestGoldenCtrlOff extends the golden lock to the control-plane layer:
// with Config.Ctrl nil the scalable policies take the oracle-state path
// — no plane, no extra RNG derivations, no message events — so the
// full-run results must stay bit-identical to the values captured when
// the subsystem landed. A drift here means the ctrl-off hot path is no
// longer the PR 9 engine.
func TestGoldenCtrlOff(t *testing.T) {
	base := cluster.Config{
		Speeds:      []float64{1, 1, 2, 10},
		Utilization: 0.6,
		Duration:    5e4,
		Seed:        7,
	}
	cases := []struct {
		mk                func() *Scalable
		k                 int
		time, ratio, fair float64
		jobs              int64
	}{
		{func() *Scalable { return JSQd(2) }, 1, 201.12460609046394, 2.8068014939382713, 3.5533524939724872, 3741},
		{func() *Scalable { return JSQd(2) }, 4, 329.47005854774045, 4.3782760053310747, 5.0587316708608503, 3741},
		{func() *Scalable { return PodSpeed(2) }, 1, 92.867593148925963, 0.97938741215073366, 1.3571006438427438, 3741},
		{func() *Scalable { return PodSpeed(2) }, 4, 80.630471169092061, 0.82638298615545858, 1.1049304997425735, 3741},
		{func() *Scalable { return JIQ() }, 1, 112.72647817013664, 0.93236816103933939, 1.2692942539101288, 3741},
		{func() *Scalable { return JIQ() }, 4, 102.61349191805493, 1.2627536446654126, 1.9370415350176293, 3741},
	}
	for _, c := range cases {
		p := c.mk()
		p.Dispatchers = c.k
		p.ShardBy = dispatch.ShardHash
		res, err := cluster.Run(base, p)
		if err != nil {
			t.Fatalf("%s K=%d: %v", p.Name(), c.k, err)
		}
		if res.Ctrl != nil {
			t.Errorf("%s K=%d: Result.Ctrl non-nil with Config.Ctrl nil", p.Name(), c.k)
		}
		if res.MeanResponseTime != c.time || res.MeanResponseRatio != c.ratio ||
			res.Fairness != c.fair || res.Jobs != c.jobs {
			t.Errorf("%s K=%d drifted from the ctrl-off golden values:\n got  time=%.17g ratio=%.17g fair=%.17g jobs=%d\n want time=%.17g ratio=%.17g fair=%.17g jobs=%d",
				p.Name(), c.k, res.MeanResponseTime, res.MeanResponseRatio, res.Fairness, res.Jobs,
				c.time, c.ratio, c.fair, c.jobs)
		}
	}
}

// TestScalableJIQRepairReissue is the failure×repair×jiq regression:
// a computer that goes down holding no work loses its idle token
// (discarded at pop while masked), and before the fix nothing minted a
// new one on repair — the computer sat idle until a fallback dispatch
// happened to land there. UpSetChanged must re-issue exactly one token
// to a repaired computer that is idle and unrepresented, and must not
// mint tokens for repaired computers that come back busy or still hold
// one.
func TestScalableJIQRepairReissue(t *testing.T) {
	speeds := []float64{1, 1, 2, 10}
	p := JIQ()
	p.Dispatchers = 2
	ctx := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      speeds,
		Utilization: 0.5,
		Lambda:      1,
		Mu:          1,
		RNG:         rng.New(1),
	}
	if err := p.Init(ctx); err != nil {
		t.Fatal(err)
	}
	view := make(fakeState, len(speeds))
	p.BindState(view)
	sh := p.Sharded()

	// Take computer 2 down and burn through every token: the masked pop
	// discards 2's token instead of dispatching to it.
	p.UpSetChanged([]bool{true, true, false, true})
	for i := 0; i < len(speeds); i++ {
		target := p.Select(&sim.Job{ID: int64(i)})
		if target == 2 {
			t.Fatalf("dispatch %d reached down computer 2", i)
		}
		view[target]++
	}
	for k := 0; k < sh.K(); k++ {
		if sh.Replica(k).(*dispatch.JIQ).HasToken(2) {
			t.Fatal("down computer 2 still holds a token after the pops")
		}
	}

	// Repair with 2 idle (all-up arrives as a nil mask inside SetUp —
	// the transition the per-replica re-issue missed): exactly one
	// token comes back.
	p.UpSetChanged([]bool{true, true, true, true})
	tokens := 0
	for k := 0; k < sh.K(); k++ {
		if sh.Replica(k).(*dispatch.JIQ).HasToken(2) {
			tokens++
		}
	}
	if tokens != 1 {
		t.Fatalf("repaired idle computer 2 holds %d tokens, want exactly 1", tokens)
	}

	// Fail and repair again, but this time 2 comes back busy: no token.
	p.UpSetChanged([]bool{true, true, false, true})
	for i := 10; i < 14; i++ {
		view[p.Select(&sim.Job{ID: int64(i)})]++
	}
	view[2] = 3
	p.UpSetChanged([]bool{true, true, true, true})
	for k := 0; k < sh.K(); k++ {
		if sh.Replica(k).(*dispatch.JIQ).HasToken(2) {
			t.Fatal("busy repaired computer 2 was issued an idle token")
		}
	}
}

// TestStaticSyncPartitionLockstep pins the partitioned-replica
// degradation semantics: when a sync partition blocks every frame for
// the whole horizon, the replicas run on private state only, and the
// paper metrics are bit-identical to the same policy with counter-sync
// disabled — the partition degrades to exactly the no-sync engine, it
// does not half-apply anything. The ctrl ledger confirms every frame
// was sent and none applied.
func TestStaticSyncPartitionLockstep(t *testing.T) {
	base := cluster.Config{
		Speeds:      []float64{1, 1, 2, 10},
		Utilization: 0.6,
		Duration:    1e4,
		Seed:        11,
	}
	mk := func(syncEvery float64) *Static {
		s := ORR()
		s.Dispatchers = 2
		s.ShardBy = dispatch.ShardHash
		s.SyncEvery = syncEvery
		return s
	}

	part := base
	part.Ctrl = &ctrlplane.Config{
		SyncPartitions: []netfault.Partition{{From: 0, To: 2e4}}, // covers the horizon
		QueryTO:        1,                                        // partitions make the plane lossy
	}
	pRes, err := cluster.Run(part, mk(50))
	if err != nil {
		t.Fatal(err)
	}
	nRes, err := cluster.Run(base, mk(0)) // sync disabled, ctrl off
	if err != nil {
		t.Fatal(err)
	}
	if pRes.MeanResponseTime != nRes.MeanResponseTime || pRes.MeanResponseRatio != nRes.MeanResponseRatio ||
		pRes.Fairness != nRes.Fairness || pRes.Jobs != nRes.Jobs {
		t.Errorf("fully partitioned sync is not in lockstep with sync disabled:\n partitioned time=%.17g ratio=%.17g jobs=%d\n no-sync     time=%.17g ratio=%.17g jobs=%d",
			pRes.MeanResponseTime, pRes.MeanResponseRatio, pRes.Jobs,
			nRes.MeanResponseTime, nRes.MeanResponseRatio, nRes.Jobs)
	}
	cs := pRes.Ctrl
	if cs == nil {
		t.Fatal("partitioned run carries no ctrl ledger")
	}
	if cs.SyncSent == 0 || cs.SyncLost != cs.SyncSent || cs.SyncApplied != 0 || cs.SyncDelivered != 0 {
		t.Errorf("full-horizon partition ledger: sent=%d lost=%d delivered=%d applied=%d, want every frame sent and lost",
			cs.SyncSent, cs.SyncLost, cs.SyncDelivered, cs.SyncApplied)
	}
}

// TestStaticSyncMonotonicRejoin drives a partial sync partition with
// frame duplication: after the window the replicas rejoin and fresh
// frames apply, while every duplicated copy is rejected by the
// per-sender version check — the receiver's accepted version only
// moves forward. Delivered frames are exactly applied + stale.
func TestStaticSyncMonotonicRejoin(t *testing.T) {
	base := cluster.Config{
		Speeds:      []float64{1, 1, 2, 10},
		Utilization: 0.6,
		Duration:    1e4,
		Seed:        11,
	}
	base.Ctrl = &ctrlplane.Config{
		Link:           netfault.Link{Dup: 1}, // every frame ships a duplicate copy
		SyncPartitions: []netfault.Partition{{From: 2e3, To: 6e3}},
		QueryTO:        1,
	}
	s := ORR()
	s.Dispatchers = 2
	s.ShardBy = dispatch.ShardHash
	s.SyncEvery = 50
	res, err := cluster.Run(base, s)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Ctrl
	if cs == nil {
		t.Fatal("run carries no ctrl ledger")
	}
	if cs.SyncLost == 0 {
		t.Error("the partition window blocked no frames")
	}
	if cs.SyncApplied == 0 {
		t.Error("no frames applied outside the window: the replicas never rejoined")
	}
	if cs.SyncStale == 0 {
		t.Error("duplicated frames were never rejected: the version check is not monotonic")
	}
	if cs.SyncDelivered != cs.SyncApplied+cs.SyncStale {
		t.Errorf("sync ledger leak: delivered=%d != applied=%d + stale=%d",
			cs.SyncDelivered, cs.SyncApplied, cs.SyncStale)
	}
	if int64(s.Syncs()) != cs.SyncApplied {
		t.Errorf("policy counted %d applied frames, ledger says %d", s.Syncs(), cs.SyncApplied)
	}
}

// jiqCtrlConfig is a lossy, leased control plane with a query timeout:
// the fleet500-jiq benchmark's control links.
func jiqCtrlConfig() *ctrlplane.Config {
	return &ctrlplane.Config{
		Link:    netfault.Link{Loss: 0.25, Latency: dist.Exponential{MeanVal: 1}},
		Lease:   5,
		QueryTO: 8,
	}
}

// TestJIQCtrlTokenPathZeroAlloc locks the allocation-free control-plane
// token path: once warmed up, a JIQ policy over K=4 replicas on a lossy,
// leased control plane sends idle tokens, renews leases, lands token
// copies and late query replies, and pops tokens without a single heap
// allocation per engine event. A minimal harness stands in for the
// cluster: Poisson arrivals routed by Select, per-computer FIFO
// exponential service reporting Departed, all callbacks bound once.
func TestJIQCtrlTokenPathZeroAlloc(t *testing.T) {
	const n = 48
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = []float64{1, 1, 2, 10}[i%4]
	}
	en := &sim.Engine{}
	p := JIQ()
	p.Dispatchers = 4
	p.ShardBy = dispatch.ShardHash
	ctx := &cluster.Context{Engine: en, Speeds: speeds, Utilization: 0.7, Lambda: 1, Mu: 1, RNG: rng.New(3), Horizon: 1e9}
	if err := p.Init(ctx); err != nil {
		t.Fatal(err)
	}
	cfg := jiqCtrlConfig()
	if err := cfg.Validate(n, 4); err != nil {
		t.Fatal(err)
	}
	plane := ctrlplane.NewPlane(en, cfg, n, rng.New(4), 1e9)
	view := make(fakeState, n)
	plane.BindSource(view)
	p.BindCtrl(plane)
	p.BindState(view)

	total := 0.0
	for _, s := range speeds {
		total += s
	}
	st := rng.New(5)
	gap := 1 / (0.7 * total) // unit-mean work per job: ρ ≈ 0.7
	job := &sim.Job{}
	var id int64
	depart := make([]func(), n)
	for i := range depart {
		depart[i] = func() {
			view[i]--
			job.Target = i
			p.Departed(job)
			if view[i] > 0 {
				en.ScheduleAfter(st.Exp(1/speeds[i]), depart[i])
			}
		}
	}
	var arrive func()
	arrive = func() {
		id++
		job.ID = id
		i := p.Select(job)
		p.TakeDecisionCost()
		if view[i]++; view[i] == 1 {
			en.ScheduleAfter(st.Exp(1/speeds[i]), depart[i])
		}
		en.ScheduleAfter(st.Exp(gap), arrive)
	}
	en.ScheduleAfter(st.Exp(gap), arrive)
	for i := 0; i < 200000; i++ {
		en.Step()
	}
	stats := plane.Finish()
	if stats.TokensLost == 0 || stats.TokensSpent == 0 || stats.QueriesLate == 0 {
		t.Fatalf("warm-up did not exercise the token path: %+v", stats)
	}
	// AllocsPerRun truncates its average to an integer, so each run is
	// a batch of events: one allocation anywhere in a batch fails.
	const batch = 1000
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < batch; i++ {
			en.Step()
		}
	}); allocs != 0 {
		t.Fatalf("control-plane token path allocates %v times per %d events, want 0", allocs, batch)
	}
}

// TestScalableRebindMatchesFresh runs one JIQ policy value twice on a
// lossy leased control plane: the second run (fresh engine, fresh plane)
// must produce a Result deeply equal to a freshly built policy's. The
// token sink and per-computer renewal callbacks are bound at BindCtrl,
// the plane's message free list is per run, and Init resets the
// round-robin token cursor; a callback, message or cursor kept from the
// first run would show up here.
func TestScalableRebindMatchesFresh(t *testing.T) {
	speeds := make([]float64, 48)
	for i := range speeds {
		speeds[i] = []float64{1, 1, 2, 10}[i%4]
	}
	cfg := cluster.Config{
		Speeds:      speeds,
		Utilization: 0.7,
		Duration:    2e3,
		Seed:        9,
		Ctrl:        jiqCtrlConfig(),
	}
	mk := func() *Scalable {
		p := JIQ()
		p.Dispatchers = 4
		p.ShardBy = dispatch.ShardHash
		return p
	}
	reused := mk()
	first, err := cluster.Run(cfg, reused)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = 10
	second, err := cluster.Run(cfg2, reused)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := cluster.Run(cfg2, mk())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, second) {
		t.Fatal("runs at different seeds gave identical results; the comparison proves nothing")
	}
	if !reflect.DeepEqual(second, fresh) {
		t.Errorf("rebound policy diverged from a fresh one:\n rebound %+v\n fresh   %+v", second, fresh)
	}
}
