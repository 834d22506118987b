package cli

import (
	"flag"

	"heterosched/internal/cluster"
)

// This file is the one place a layer flag is declared, built and
// recorded. heterosim and sweep Register the flags on their command
// line, and the chaos scenario grammar embeds LayerFlags and reads and
// writes its keys through Set and Visit, so all three share one list
// of names, defaults and help texts and one build sequence.

// LayerFlags holds the raw value of every layer flag: the sharded
// dispatch plane, the failure model, overload protection, drift and
// re-planning, network faults and the control plane. The zero value
// turns every layer off; Register installs the front ends' defaults.
type LayerFlags struct {
	Dispatchers, Sync string
	Scale             int

	MTBF, MTTR float64
	Fate       string
	Retries    int
	Detect     float64
	Realloc    string

	QCap, Admit, Deadline string
	Timeout               float64
	Retry                 int
	Backoff, Breaker      string

	Drift, Replan, Estimator string

	Netfault, AckTO, DState string
	Ctrl                    string
}

// layerDefaults are the front ends' flag defaults.
var layerDefaults = LayerFlags{
	Dispatchers: "1", Sync: "never", Fate: "requeue", Retries: 3, Realloc: "stale", Admit: "none",
}

// layerFlag is one row of the layer-flag table.
type layerFlag struct {
	name string
	// layer names the layer whose being on makes Record write the flag.
	layer string
	// ptr is the bound LayerFlags field: a *string, *int or *float64.
	ptr   any
	usage string
}

// flags is the layer-flag table, in declaration order.
func (f *LayerFlags) flags() []layerFlag {
	return []layerFlag{
		{"dispatchers", "sharding", &f.Dispatchers, "dispatcher replicas K[:rr|hash] (1 = the paper's central scheduler)"},
		{"sync", "sharding", &f.Sync, "counter-sync period for sharded Algorithm 2 replicas: never or seconds"},
		{"scale", "scale", &f.Scale, "tile -speeds cyclically out to this many computers (0 = use -speeds as given)"},
		{"mtbf", "faults", &f.MTBF, "mean time between failures per computer (exponential); 0 disables failures"},
		{"mttr", "faults", &f.MTTR, "mean time to repair per computer (exponential)"},
		{"fate", "faults", &f.Fate, "job fate at failure: lost, restart, resume or requeue"},
		{"retries", "faults", &f.Retries, "re-dispatch budget per job under -fate requeue"},
		{"detect", "faults", &f.Detect, "failure/repair detection lag in seconds"},
		{"realloc", "faults", &f.Realloc, "static policies on failure: stale (keep fractions) or resolve (re-run allocator)"},
		{"qcap", "overload", &f.QCap, "per-computer queue bound: K or K:oldest|newest (0/empty disables)"},
		{"admit", "overload", &f.Admit, "admission policy: none, reject-when-full or token-bucket:RATE[:BURST]"},
		{"deadline", "overload", &f.Deadline, "per-job relative deadline: exp:MEAN, const:V or uni:LO:HI, optional :kill|:mark"},
		{"timeout", "overload", &f.Timeout, "dispatcher timeout in seconds before a job is pulled back and retried (0 disables)"},
		{"retry", "overload", &f.Retry, "retry budget per job after timeouts and rejections"},
		{"backoff", "overload", &f.Backoff, "retry backoff BASE:MAX[:JITTER] in seconds (default 1:60:0)"},
		{"breaker", "overload", &f.Breaker, "per-computer circuit breaker CONSEC:COOLDOWN[:RATIO:WINDOW] (empty disables)"},
		{"drift", "drift", &f.Drift, "ground-truth drift specs, comma-separated: lstep:T:F, lramp:T0:T1:F, lcycle:P:A, sstep:T:F[:IDX], mis:RHOERR[:SPEEDERR]"},
		{"replan", "adapt", &f.Replan, "adaptive re-planning CHECK:TRIP:COOLDOWN[:BAND[:MINN]] (watchdog period, rho trip threshold, cooldown; empty disables)"},
		{"estimator", "adapt", &f.Estimator, "online estimator win:N or ewma:ALPHA (default win:256; needs -replan)"},
		{"netfault", "netfault", &f.Netfault, "network-fault specs, comma-separated: loss:P[:LINK], dup:P[:LINK], lat:MEAN[:LINK], crash:MTBF:MTTR, down:drop|buffer[:CAP]|failover, part:FROM:TO[:L1+L2+...]"},
		{"ackto", "netfault", &f.AckTO, "dispatch ack timeout TO[:BUDGET[:BASE:MAX[:JITTER]]]; required when the network can lose messages"},
		{"dstate", "netfault", &f.DState, "dispatcher state recovery after a crash: acks, ckpt:DT[:CLIENTTO] or cold[:RELEARN[:CLIENTTO]] (needs a crash item)"},
		{"ctrl", "ctrl", &f.Ctrl, "control-plane fault specs, comma-separated: loss:P[:LINK], dup:P[:LINK], lat:MEAN[:LINK], lease:T, qto:T, part:FROM:TO[:L1+L2+...], dpart:FROM:TO[:K1+K2+...]"},
	}
}

// Register resets f to the front ends' defaults and declares every
// layer flag on fs, bound to f.
func (f *LayerFlags) Register(fs *flag.FlagSet) {
	*f = layerDefaults
	f.declare(fs)
}

// declare declares every layer flag on fs, bound to its field, with the
// field's current value as the default.
func (f *LayerFlags) declare(fs *flag.FlagSet) {
	for _, l := range f.flags() {
		switch p := l.ptr.(type) {
		case *string:
			fs.StringVar(p, l.name, *p, l.usage)
		case *int:
			fs.IntVar(p, l.name, *p, l.usage)
		case *float64:
			fs.Float64Var(p, l.name, *p, l.usage)
		}
	}
}

// bound returns a fresh flag set bound to f that keeps f's values.
func (f *LayerFlags) bound() *flag.FlagSet {
	fs := flag.NewFlagSet("layers", flag.ContinueOnError)
	f.declare(fs)
	return fs
}

// Set parses value into the layer flag called name, with the flag
// package's syntax. ok is false when name is not a layer flag.
func (f *LayerFlags) Set(name, value string) (ok bool, err error) {
	fs := f.bound()
	if fs.Lookup(name) == nil {
		return false, nil
	}
	return true, fs.Set(name, value)
}

// Visit calls fn with the name and flag-syntax value of every layer
// flag that is not at its zero value, in declaration order.
func (f *LayerFlags) Visit(fn func(name, value string)) {
	fs := f.bound()
	for _, l := range f.flags() {
		v := fs.Lookup(l.name).Value
		if g := v.(flag.Getter).Get(); g != "" && g != 0 && g != 0.0 {
			fn(l.name, v.String())
		}
	}
}

// Build runs the one layer build sequence over the given speeds:
// scale, sharding, faults, overload, drift, netfault, ctrl. It returns
// a cluster.Config template holding the scaled speeds and every layer
// config (the caller fills in the run fields) and the options the
// policy parser needs, sharding included.
func (f *LayerFlags) Build(speeds []float64) (cluster.Config, PolicyOptions, error) {
	var cfg cluster.Config
	var opts PolicyOptions
	var err error
	if cfg.Speeds, err = ScaleSpeeds(speeds, f.Scale); err != nil {
		return cluster.Config{}, PolicyOptions{}, err
	}
	n := len(cfg.Speeds)
	if opts.Sharding, err = ParseShardingSpecs(f.Dispatchers, f.Sync); err != nil {
		return cluster.Config{}, PolicyOptions{}, err
	}
	if cfg.Faults, opts.Realloc, err = (FaultParams{
		MTBF: f.MTBF, MTTR: f.MTTR, Fate: f.Fate, Retries: f.Retries, Detect: f.Detect, Realloc: f.Realloc,
	}).Build(); err != nil {
		return cluster.Config{}, PolicyOptions{}, err
	}
	if cfg.Overload, err = (OverloadParams{
		QCap: f.QCap, Admit: f.Admit, Deadline: f.Deadline,
		Timeout: f.Timeout, Retry: f.Retry, Backoff: f.Backoff, Breaker: f.Breaker,
	}).Build(); err != nil {
		return cluster.Config{}, PolicyOptions{}, err
	}
	if cfg.Drift, cfg.Adapt, err = (DriftParams{Drift: f.Drift, Replan: f.Replan, Estimator: f.Estimator}).Build(n); err != nil {
		return cluster.Config{}, PolicyOptions{}, err
	}
	if cfg.Netfault, err = (NetfaultParams{Netfault: f.Netfault, AckTO: f.AckTO, DState: f.DState}).Build(n); err != nil {
		return cluster.Config{}, PolicyOptions{}, err
	}
	if cfg.Ctrl, err = (CtrlParams{Ctrl: f.Ctrl}).Build(n, opts.Sharding.Dispatchers); err != nil {
		return cluster.Config{}, PolicyOptions{}, err
	}
	opts.Faults = cfg.Faults
	opts.Computers = n
	return cfg, opts, nil
}

// Record writes every flag of each layer that Build turned on into a
// manifest's config map, with the flag's typed value.
func (f *LayerFlags) Record(config map[string]any, cfg cluster.Config, opts PolicyOptions) {
	on := map[string]bool{
		"sharding": opts.Sharding.Enabled(),
		"scale":    f.Scale > 0,
		"faults":   cfg.Faults != nil,
		"overload": cfg.Overload != nil,
		"drift":    cfg.Drift != nil,
		"adapt":    cfg.Adapt != nil,
		"netfault": cfg.Netfault != nil,
		"ctrl":     cfg.Ctrl != nil,
	}
	fs := f.bound()
	for _, l := range f.flags() {
		if on[l.layer] {
			config[l.name] = fs.Lookup(l.name).Value.(flag.Getter).Get()
		}
	}
}
