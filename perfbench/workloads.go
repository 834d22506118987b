package main

import (
	"fmt"
	"strings"

	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/experiments"
	"heterosched/internal/probe"
)

// workload is one benchmark input: a cluster configuration written as
// the front ends' flag values, so it is built through the same public
// cli parsers and sched constructors a heterosim user exercises. Cells
// of a workload differ only in Config.Seed.
type workload struct {
	name string

	scale       int     // tile experiments.BaseSpeeds out to this many computers (0 = 15)
	rho         float64 // offered utilization
	policy      string  // cli.ParsePolicy mnemonic
	dispatchers string  // -dispatchers
	horizon     float64 // simulated seconds per cell

	// Optional layers, as heterosim flag values; "" or 0 leaves a layer off.
	mtbf, mttr      float64
	fate, realloc   string
	detect          float64
	qcap, deadline  string
	breaker         string
	drift, replan   string
	netfault, ackto string
	dstate          string
	ctrl            string
	probe           bool // attach a fresh probe (metrics and spans) to every cell
}

// workloads lists every workload the benchmark runs, in BENCHMARK.json
// order.
var workloads = []workload{
	{
		name:    "paper-base",
		rho:     0.7,
		policy:  "ORR",
		horizon: 4e5,
	},
	{
		name:        "fleet500-jiq",
		scale:       500,
		rho:         0.7,
		policy:      "jiq",
		dispatchers: "4:hash",
		horizon:     5e3,
		ctrl:        "lat:1,loss:0.25,lease:5,qto:8",
	},
	{
		name:    "paper-faulted",
		rho:     0.85,
		policy:  "ORR",
		horizon: 1e5,
		mtbf:    5e4, mttr: 2e3, fate: "requeue", detect: 30, realloc: "resolve",
		qcap: "50", deadline: "exp:2000:mark", breaker: "5:300",
		drift: "lstep:{H/2}:1.15,mis:0.1", replan: "5000:0.9:20000",
		netfault: "loss:0.02,dup:0.02,lat:1,crash:{H/5}:500,down:buffer", ackto: "30", dstate: "ckpt:5000",
		probe: true,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// layers returns the optional layers the workload turns on, in the
// order their marginal costs are reported.
func (w workload) layers() []string {
	var out []string
	if w.mtbf > 0 {
		out = append(out, "faults")
	}
	if w.qcap != "" || w.deadline != "" || w.breaker != "" {
		out = append(out, "overload")
	}
	if w.drift != "" || w.replan != "" {
		out = append(out, "adapt")
	}
	if w.netfault != "" {
		out = append(out, "netfault")
	}
	if w.ctrl != "" {
		out = append(out, "ctrl")
	}
	if w.probe {
		out = append(out, "probe")
	}
	return out
}

// without returns w with one optional layer removed; "adapt" removes
// drift and re-planning together.
func (w workload) without(layer string) workload {
	switch layer {
	case "faults":
		w.mtbf, w.mttr, w.fate, w.detect, w.realloc = 0, 0, "", 0, ""
	case "overload":
		w.qcap, w.deadline, w.breaker = "", "", ""
	case "adapt":
		w.drift, w.replan = "", ""
	case "netfault":
		w.netfault, w.ackto, w.dstate = "", "", ""
	case "ctrl":
		w.ctrl = ""
	case "probe":
		w.probe = false
	}
	return w
}

// expand substitutes the horizon-relative placeholders {H/2} and {H/5}.
func (w workload) expand(spec string) string {
	return strings.NewReplacer(
		"{H/2}", fmt.Sprintf("%g", w.horizon/2),
		"{H/5}", fmt.Sprintf("%g", w.horizon/5),
	).Replace(spec)
}

// built is a workload turned into a runnable cell template.
type built struct {
	cfg     cluster.Config
	factory cluster.PolicyFactory
	probe   bool
}

// build parses and validates the workload through the cli package,
// exactly as heterosim would for the equivalent flags.
func (w workload) build() (*built, error) {
	speeds, err := cli.ScaleSpeeds(experiments.BaseSpeeds(), w.scale)
	if err != nil {
		return nil, err
	}
	dispatchers := w.dispatchers
	if dispatchers == "" {
		dispatchers = "1"
	}
	sharding, err := cli.ParseShardingSpecs(dispatchers, "never")
	if err != nil {
		return nil, err
	}
	params := cli.RunParams{Rho: w.rho, Duration: w.horizon, Reps: 1, CV: 3, MeanSize: 76.8}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	fate := w.fate
	if fate == "" {
		fate = "requeue"
	}
	realloc := w.realloc
	if realloc == "" {
		realloc = "stale"
	}
	faultCfg, mode, err := cli.FaultParams{
		MTBF: w.mtbf, MTTR: w.mttr, Fate: fate, Retries: 3, Detect: w.detect, Realloc: realloc,
	}.Build()
	if err != nil {
		return nil, err
	}
	ovCfg, err := cli.OverloadParams{
		QCap: w.qcap, Admit: "none", Deadline: w.deadline, Breaker: w.breaker,
	}.Build()
	if err != nil {
		return nil, err
	}
	driftCfg, adaptCfg, err := cli.DriftParams{
		Drift: w.expand(w.drift), Replan: w.replan,
	}.Build(len(speeds))
	if err != nil {
		return nil, err
	}
	netCfg, err := cli.NetfaultParams{
		Netfault: w.expand(w.netfault), AckTO: w.ackto, DState: w.dstate,
	}.Build(len(speeds))
	if err != nil {
		return nil, err
	}
	ctrlCfg, err := cli.CtrlParams{Ctrl: w.ctrl}.Build(len(speeds), sharding.Dispatchers)
	if err != nil {
		return nil, err
	}
	factory, err := cli.ParsePolicy(w.policy, cli.PolicyOptions{
		Realloc:   mode,
		Faults:    faultCfg,
		Computers: len(speeds),
		Sharding:  sharding,
	})
	if err != nil {
		return nil, err
	}
	return &built{
		cfg: cluster.Config{
			Speeds:      speeds,
			Utilization: w.rho,
			Duration:    w.horizon,
			ArrivalCV:   params.CV,
			Faults:      faultCfg,
			Overload:    ovCfg,
			Drift:       driftCfg,
			Adapt:       adaptCfg,
			Netfault:    netCfg,
			Ctrl:        ctrlCfg,
		},
		factory: factory,
		probe:   w.probe,
	}, nil
}

// cell returns the configuration of one cell: the template with the
// cell's seed and, when the workload asks for it, a fresh probe.
func (b *built) cell(seed uint64) (cluster.Config, error) {
	cfg := b.cfg
	cfg.Seed = seed
	if b.probe {
		pb, err := probe.New(probe.Options{Metrics: true, Spans: true})
		if err != nil {
			return cfg, err
		}
		cfg.Probe = pb
	}
	return cfg, nil
}

// cellSeed derives cell i's Config.Seed from the workload seed
// (splitmix64, so neighbouring workload seeds give unrelated cells).
func cellSeed(seed uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
