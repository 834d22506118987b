package netfault

import (
	"strings"
	"testing"

	"heterosched/internal/dist"
	"heterosched/internal/rng"
)

// TestSampleLatencyClampsNegative: a latency distribution whose support
// dips below zero yields zero delay for its negative samples and the
// sample itself otherwise, consuming exactly one draw either way; a
// link without latency draws nothing.
func TestSampleLatencyClampsNegative(t *testing.T) {
	u := dist.Uniform{Lo: -1, Hi: 1}
	l := Link{Latency: u}
	got, want := rng.New(3), rng.New(3)
	negatives := 0
	for i := 0; i < 1000; i++ {
		d := l.SampleLatency(got)
		raw := u.Sample(want)
		if raw < 0 {
			negatives++
			raw = 0
		}
		if d != raw {
			t.Fatalf("draw %d: SampleLatency = %v, want %v", i, d, raw)
		}
	}
	if negatives == 0 {
		t.Fatal("no negative samples drawn; the clamp went untested")
	}
	st := rng.New(3)
	if d := (Link{}).SampleLatency(st); d != 0 {
		t.Fatalf("link without latency: delay %v", d)
	}
	if st.Float64() != rng.New(3).Float64() {
		t.Fatal("link without latency consumed a draw")
	}
}

func TestEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config reports enabled")
	}
	if (&Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	for name, c := range map[string]*Config{
		"latency":    {Link: Link{Latency: dist.Deterministic{Value: 1}}},
		"loss":       {Link: Link{Loss: 0.1}},
		"dup":        {Link: Link{Dup: 0.1}},
		"per-link":   {PerLink: map[int]Link{0: {Loss: 0.1}}},
		"partition":  {Partitions: []Partition{{From: 1, To: 2}}},
		"dispatcher": {Dispatcher: &Dispatcher{}},
		"ack":        {Ack: Ack{Timeout: 10}},
	} {
		if !c.Enabled() {
			t.Errorf("%s config reports disabled", name)
		}
	}
}

func TestLinkFor(t *testing.T) {
	c := &Config{
		Link:    Link{Loss: 0.01},
		PerLink: map[int]Link{2: {Loss: 0.5}},
	}
	if got := c.LinkFor(0).Loss; got != 0.01 {
		t.Errorf("LinkFor(0).Loss = %g, want default 0.01", got)
	}
	if got := c.LinkFor(2).Loss; got != 0.5 {
		t.Errorf("LinkFor(2).Loss = %g, want override 0.5", got)
	}
}

func TestLossy(t *testing.T) {
	if (&Config{Link: Link{Latency: dist.Deterministic{Value: 1}, Dup: 0.5}}).Lossy(4) {
		t.Error("latency+dup-only config reports lossy")
	}
	if !(&Config{Link: Link{Loss: 0.01}}).Lossy(4) {
		t.Error("default-link loss not reported lossy")
	}
	if !(&Config{PerLink: map[int]Link{3: {Loss: 0.01}}}).Lossy(4) {
		t.Error("per-link loss not reported lossy")
	}
	if (&Config{PerLink: map[int]Link{7: {Loss: 0.01}}}).Lossy(4) {
		t.Error("out-of-range per-link loss reported lossy")
	}
	if !(&Config{Partitions: []Partition{{From: 1, To: 2}}}).Lossy(4) {
		t.Error("partitions not reported lossy")
	}
}

func TestValidateDefaults(t *testing.T) {
	c := &Config{
		Dispatcher: &Dispatcher{
			Uptime:   dist.Exponential{MeanVal: 1000},
			Downtime: dist.Exponential{MeanVal: 50},
		},
		Ack: Ack{Timeout: 20},
	}
	if err := c.Validate(4); err != nil {
		t.Fatal(err)
	}
	d := c.Dispatcher
	if d.BufferCap != DefaultBufferCap || d.CheckpointDT != DefaultCheckpointDT ||
		d.RelearnT != DefaultRelearnT || d.ClientTO != DefaultClientTO {
		t.Errorf("dispatcher defaults not applied: %+v", d)
	}
	a := c.Ack
	if a.Budget != DefaultAckBudget || a.BackoffBase != DefaultBackoffBase || a.BackoffMax != DefaultBackoffMax {
		t.Errorf("ack defaults not applied: %+v", a)
	}
}

func TestValidateNilAndDisabled(t *testing.T) {
	var nilCfg *Config
	if err := nilCfg.Validate(4); err != nil {
		t.Errorf("nil config: %v", err)
	}
	if err := (&Config{}).Validate(4); err != nil {
		t.Errorf("zero config: %v", err)
	}
	// A disabled config skips the computer-count check entirely.
	if err := (&Config{}).Validate(0); err != nil {
		t.Errorf("zero config with zero computers: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	ack := Ack{Timeout: 20}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"loss>=1", Config{Link: Link{Loss: 1}, Ack: ack}, "loss probability"},
		{"loss<0", Config{Link: Link{Loss: -0.1}, Ack: ack}, "loss probability"},
		{"dup>1", Config{Link: Link{Dup: 1.5}}, "duplication probability"},
		{"negative latency", Config{Link: Link{Latency: dist.Deterministic{Value: -1}}}, "latency mean"},
		{"per-link index", Config{PerLink: map[int]Link{9: {}}}, "outside [0,4)"},
		{"per-link loss", Config{PerLink: map[int]Link{1: {Loss: 2}}, Ack: ack}, "link 1 loss"},
		{"partition window", Config{Partitions: []Partition{{From: 5, To: 5}}, Ack: ack}, "forward interval"},
		{"partition link", Config{Partitions: []Partition{{From: 1, To: 2, Links: []int{4}}}, Ack: ack}, "cuts link 4"},
		{"dispatcher dists", Config{Dispatcher: &Dispatcher{Uptime: dist.Exponential{MeanVal: 1}}}, "uptime and downtime"},
		{"negative ack timeout", Config{Link: Link{Dup: 0.1}, Ack: Ack{Timeout: -1}}, "ack timeout"},
		{"lossy without acks", Config{Link: Link{Loss: 0.1}}, "require ack tracking"},
		{"partition without acks", Config{Partitions: []Partition{{From: 1, To: 2}}}, "require ack tracking"},
		{
			"failover without acks",
			Config{Dispatcher: &Dispatcher{
				Uptime:   dist.Exponential{MeanVal: 1000},
				Downtime: dist.Exponential{MeanVal: 50},
				Down:     DownFailover,
			}},
			"failover down-policy requires ack",
		},
		{
			"bad backoff",
			Config{Ack: Ack{Timeout: 20, BackoffBase: 10, BackoffMax: 5}},
			"backoff base",
		},
		{
			"bad jitter",
			Config{Ack: Ack{Timeout: 20, Jitter: 2}},
			"jitter",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate(4)
			if err == nil {
				t.Fatalf("validate accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseDownPolicy(t *testing.T) {
	for s, want := range map[string]DownPolicy{
		"drop": DownDrop, "buffer": DownBuffer, "failover": DownFailover,
	} {
		got, err := ParseDownPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseDownPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("DownPolicy(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseDownPolicy("park"); err == nil {
		t.Error("ParseDownPolicy accepted an unknown name")
	}
	if s := DownPolicy(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown DownPolicy string %q", s)
	}
}

func TestParseRecovery(t *testing.T) {
	for s, want := range map[string]Recovery{
		"acks": RecoverAcks, "checkpoint": RecoverCheckpoint, "ckpt": RecoverCheckpoint, "cold": RecoverCold,
	} {
		got, err := ParseRecovery(s)
		if err != nil || got != want {
			t.Errorf("ParseRecovery(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseRecovery("warm"); err == nil {
		t.Error("ParseRecovery accepted an unknown name")
	}
	if s := Recovery(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown Recovery string %q", s)
	}
}
