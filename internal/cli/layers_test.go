package cli

import (
	"flag"
	"reflect"
	"testing"
)

// everyLayerFlag sets every layer flag to a non-default value that
// builds together on 3 speeds scaled to 8 computers.
var everyLayerFlag = []string{
	"-dispatchers", "4:hash", "-sync", "100", "-scale", "8",
	"-mtbf", "2e4", "-mttr", "500", "-fate", "restart", "-retries", "2", "-detect", "5", "-realloc", "resolve",
	"-qcap", "30:oldest", "-admit", "reject-when-full", "-deadline", "exp:800:mark",
	"-timeout", "300", "-retry", "2", "-backoff", "2:30:0.1", "-breaker", "5:400",
	"-drift", "lstep:5000:1.2", "-replan", "100:0.85:500", "-estimator", "ewma:0.1",
	"-netfault", "loss:0.05,lat:2,crash:8000:100,down:buffer", "-ackto", "30:3", "-dstate", "ckpt:2500",
	"-ctrl", "loss:0.1,lat:2,qto:30",
}

// parseLayerFlags registers the layer flags on a fresh flag set and
// parses args into them.
func parseLayerFlags(t *testing.T, args []string) (LayerFlags, *flag.FlagSet) {
	t.Helper()
	var lf LayerFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	lf.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return lf, fs
}

// TestLayerFlagsRegister pins every layer flag's name and default, and
// that argv reaches the bound fields.
func TestLayerFlagsRegister(t *testing.T) {
	_, fs := parseLayerFlags(t, nil)
	defaults := map[string]string{
		"dispatchers": "1", "sync": "never", "scale": "0",
		"mtbf": "0", "mttr": "0", "fate": "requeue", "retries": "3", "detect": "0", "realloc": "stale",
		"qcap": "", "admit": "none", "deadline": "", "timeout": "0", "retry": "0", "backoff": "", "breaker": "",
		"drift": "", "replan": "", "estimator": "",
		"netfault": "", "ackto": "", "dstate": "", "ctrl": "",
	}
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if def, ok := defaults[f.Name]; !ok {
			t.Errorf("unexpected layer flag -%s", f.Name)
		} else if f.DefValue != def {
			t.Errorf("-%s default %q, want %q", f.Name, f.DefValue, def)
		}
	})
	if n != len(defaults) {
		t.Errorf("%d layer flags registered, want %d", n, len(defaults))
	}
	lf, _ := parseLayerFlags(t, everyLayerFlag)
	if lf.Dispatchers != "4:hash" || lf.Scale != 8 || lf.MTBF != 2e4 || lf.Retries != 2 || lf.Ctrl != "loss:0.1,lat:2,qto:30" {
		t.Errorf("argv did not reach the fields: %+v", lf)
	}
}

// TestLayerFlagsBuildMatchesParams: Register + Build over an argv that
// sets every layer flag yields exactly what the individual *Params
// builders give for the same values.
func TestLayerFlagsBuildMatchesParams(t *testing.T) {
	lf, _ := parseLayerFlags(t, everyLayerFlag)
	cfg, opts, err := lf.Build([]float64{1, 2, 10})
	if err != nil {
		t.Fatal(err)
	}
	speeds, err := ScaleSpeeds([]float64{1, 2, 10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	sharding, err := ParseShardingSpecs("4:hash", "100")
	if err != nil {
		t.Fatal(err)
	}
	fc, mode, err := FaultParams{MTBF: 2e4, MTTR: 500, Fate: "restart", Retries: 2, Detect: 5, Realloc: "resolve"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	oc, err := OverloadParams{
		QCap: "30:oldest", Admit: "reject-when-full", Deadline: "exp:800:mark",
		Timeout: 300, Retry: 2, Backoff: "2:30:0.1", Breaker: "5:400",
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	dc, ac, err := DriftParams{Drift: "lstep:5000:1.2", Replan: "100:0.85:500", Estimator: "ewma:0.1"}.Build(8)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := NetfaultParams{Netfault: "loss:0.05,lat:2,crash:8000:100,down:buffer", AckTO: "30:3", DState: "ckpt:2500"}.Build(8)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := CtrlParams{Ctrl: "loss:0.1,lat:2,qto:30"}.Build(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"speeds", cfg.Speeds, speeds},
		{"faults", cfg.Faults, fc},
		{"overload", cfg.Overload, oc},
		{"drift", cfg.Drift, dc},
		{"adapt", cfg.Adapt, ac},
		{"netfault", cfg.Netfault, nc},
		{"ctrl", cfg.Ctrl, cc},
		{"policy options", opts, PolicyOptions{Realloc: mode, Faults: fc, Computers: 8, Sharding: sharding}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: Build gave %+v, the params builder %+v", c.name, c.got, c.want)
		}
	}
	if _, err := ParsePolicy("ORR", opts); err != nil {
		t.Errorf("ParsePolicy on the built options: %v", err)
	}
}

// TestLayerFlagsRecord: with every layer flag set, the manifest config
// records each one with its typed value.
func TestLayerFlagsRecord(t *testing.T) {
	lf, fs := parseLayerFlags(t, everyLayerFlag)
	cfg, opts, err := lf.Build([]float64{1, 2, 10})
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]any{}
	lf.Record(m, cfg, opts)
	fs.VisitAll(func(f *flag.Flag) {
		got, ok := m[f.Name]
		if !ok {
			t.Errorf("manifest config misses -%s", f.Name)
			return
		}
		if want := f.Value.(flag.Getter).Get(); got != want {
			t.Errorf("manifest -%s = %#v, want %#v", f.Name, got, want)
		}
	})
	if len(m) != len(lf.flags()) {
		t.Errorf("recorded %d keys, want %d: %v", len(m), len(lf.flags()), m)
	}

	// Layers that are off record nothing.
	var off LayerFlags
	offFS := flag.NewFlagSet("off", flag.ContinueOnError)
	off.Register(offFS)
	cfg, opts, err = off.Build([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	m = map[string]any{}
	off.Record(m, cfg, opts)
	if len(m) != 0 {
		t.Errorf("all-off layers recorded %v", m)
	}
}

// TestLayerFlagsSetVisit: Set and Visit speak the flag syntax and
// round-trip every non-zero layer flag, in declaration order.
func TestLayerFlagsSetVisit(t *testing.T) {
	lf, _ := parseLayerFlags(t, everyLayerFlag)
	var back LayerFlags
	var names []string
	lf.Visit(func(name, value string) {
		names = append(names, name)
		if ok, err := back.Set(name, value); !ok || err != nil {
			t.Errorf("Set(%q, %q) = %v, %v", name, value, ok, err)
		}
	})
	if !reflect.DeepEqual(back, lf) {
		t.Errorf("Visit/Set round trip changed the flags:\n  %+v\n  %+v", back, lf)
	}
	if len(names) != len(lf.flags()) || names[0] != "dispatchers" || names[len(names)-1] != "ctrl" {
		t.Errorf("Visit order = %v", names)
	}
	var zero LayerFlags
	zero.Visit(func(name, value string) { t.Errorf("zero LayerFlags visited %s=%s", name, value) })
	if ok, _ := zero.Set("rho", "0.5"); ok {
		t.Error("Set accepted a non-layer flag")
	}
	if ok, err := zero.Set("mtbf", "soon"); !ok || err == nil {
		t.Errorf("Set(mtbf, soon) = %v, %v; want a parse error", ok, err)
	}
}
