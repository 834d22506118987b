package cluster_test

import (
	"testing"

	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/experiments"
	"heterosched/internal/sched"
)

// faultedFleetConfig is the paper's Table 3 fleet at ρ=0.85 under ORR
// with every optional layer on — compute faults with requeue, overload
// protection, drift with re-planning, and network faults with
// dispatcher crashes and checkpoint recovery — built through the cli
// parsers from the same flag values a heterosim user would pass.
func faultedFleetConfig(t *testing.T, seed uint64) (cluster.Config, cluster.Policy) {
	t.Helper()
	const horizon = 1e5
	speeds := experiments.BaseSpeeds()
	faultCfg, mode, err := cli.FaultParams{
		MTBF: 5e4, MTTR: 2e3, Fate: "requeue", Retries: 3, Detect: 30, Realloc: "resolve",
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ovCfg, err := cli.OverloadParams{
		QCap: "50", Admit: "none", Deadline: "exp:2000:mark", Breaker: "5:300",
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	driftCfg, adaptCfg, err := cli.DriftParams{
		Drift: "lstep:50000:1.15,mis:0.1", Replan: "5000:0.9:20000",
	}.Build(len(speeds))
	if err != nil {
		t.Fatal(err)
	}
	netCfg, err := cli.NetfaultParams{
		Netfault: "loss:0.02,dup:0.02,lat:1,crash:20000:500,down:buffer", AckTO: "30", DState: "ckpt:5000",
	}.Build(len(speeds))
	if err != nil {
		t.Fatal(err)
	}
	p := sched.ORR()
	p.Realloc = mode
	return cluster.Config{
		Speeds:      speeds,
		Utilization: 0.85,
		Duration:    horizon,
		ArrivalCV:   3,
		Seed:        seed,
		Faults:      faultCfg,
		Overload:    ovCfg,
		Drift:       driftCfg,
		Adapt:       adaptCfg,
		Netfault:    netCfg,
	}, p
}

// TestFaultedFleetRescueRetransmitAcrossCrash is the regression for a
// job lost across two dispatcher crashes. At this seed a job forgotten
// by one restart's checkpoint recovery is rescued by its client; the
// rescue's backoff retransmit then fires while the dispatcher is down
// again. Parked together with the ack timers, it was replayed only if
// the job was still in the outstanding table — which a client-rescued
// job never is — so the retransmit was dropped and the job stayed in
// the system forever (FinalInSystem=1). Every generated job must reach
// exactly one terminal outcome.
func TestFaultedFleetRescueRetransmitAcrossCrash(t *testing.T) {
	cfg, p := faultedFleetConfig(t, 3764050305779154529)
	attachLedger(t, &cfg) // fails the test on any double finalization
	res, err := cluster.Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalInSystem != 0 {
		t.Errorf("FinalInSystem = %d, want 0: a job never reached a terminal outcome", res.FinalInSystem)
	}
	var sum int64
	for _, n := range res.Outcomes {
		sum += n
	}
	if sum != res.GeneratedJobs {
		t.Errorf("sum(Outcomes) = %d, GeneratedJobs = %d", sum, res.GeneratedJobs)
	}
	if res.Netfault == nil || res.Netfault.ClientRescues == 0 || res.Netfault.Crashes < 2 {
		t.Fatalf("the run no longer exercises the path: netfault stats %+v", res.Netfault)
	}
}
