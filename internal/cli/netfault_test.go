package cli

import (
	"strings"
	"testing"

	"heterosched/internal/dist"
	"heterosched/internal/netfault"
)

func TestParseNetfaultSpecEmpty(t *testing.T) {
	for _, s := range []string{"", "  ", ",,", " , "} {
		cfg, err := ParseNetfaultSpec(s)
		if err != nil || cfg != nil {
			t.Errorf("ParseNetfaultSpec(%q) = %+v, %v; want nil, nil", s, cfg, err)
		}
	}
}

func TestParseNetfaultSpecLinks(t *testing.T) {
	cfg, err := ParseNetfaultSpec("loss:0.05,dup:0.02,lat:3,loss:0.2:3,lat:0:3")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Link.Loss != 0.05 || cfg.Link.Dup != 0.02 {
		t.Errorf("default link = %+v", cfg.Link)
	}
	if d, ok := cfg.Link.Latency.(dist.Exponential); !ok || d.MeanVal != 3 {
		t.Errorf("default latency = %#v, want exponential mean 3", cfg.Link.Latency)
	}
	// The per-link override inherits unset fields from the default model
	// and overrides the rest — here loss jumps to 0.2 and latency is
	// cleared, but dup stays at the default 0.02.
	l3 := cfg.LinkFor(3)
	if l3.Loss != 0.2 || l3.Dup != 0.02 || l3.Latency != nil {
		t.Errorf("link 3 = %+v, want loss 0.2, dup 0.02, no latency", l3)
	}
	if l := cfg.LinkFor(1); l.Loss != 0.05 {
		t.Errorf("link 1 = %+v, want the default model", l)
	}
}

func TestParseNetfaultSpecCrashDownPart(t *testing.T) {
	cfg, err := ParseNetfaultSpec("down:buffer:64,crash:15000:100,part:1000:2000:0+2,part:5000:6000")
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.Dispatcher
	if d == nil {
		t.Fatal("no dispatcher")
	}
	if d.Down != netfault.DownBuffer || d.BufferCap != 64 {
		t.Errorf("down policy = %v cap %d", d.Down, d.BufferCap)
	}
	if up, ok := d.Uptime.(dist.Exponential); !ok || up.MeanVal != 15000 {
		t.Errorf("uptime = %#v", d.Uptime)
	}
	if len(cfg.Partitions) != 2 {
		t.Fatalf("partitions = %+v", cfg.Partitions)
	}
	p := cfg.Partitions[0]
	if p.From != 1000 || p.To != 2000 || len(p.Links) != 2 || p.Links[0] != 0 || p.Links[1] != 2 {
		t.Errorf("partition 0 = %+v", p)
	}
	if len(cfg.Partitions[1].Links) != 0 {
		t.Errorf("partition 1 = %+v, want a full partition", cfg.Partitions[1])
	}
}

func TestParseNetfaultSpecRejects(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"bogus:1", "unknown netfault spec"},
		{"loss:", "want loss:VALUE"},
		{"loss:x", "bad loss value"},
		{"loss:0.1:x", "bad link index"},
		{"loss:0.1:-1", "link index -1"},
		{"loss:0.1,loss:0.2", "duplicate default loss"},
		{"dup:0.1:2,dup:0.2:2", "duplicate dup item for link 2"},
		{"lat:-5", "latency mean -5 is negative"},
		{"crash:1000", "want crash:MTBF:MTTR"},
		{"crash:0:100", "must be positive"},
		{"crash:1000:100,crash:1000:100", "duplicate crash item"},
		{"crash:1000:100,down:drop,down:drop", "duplicate down item"},
		{"crash:1000:100,down:park", "unknown down policy"},
		{"crash:1000:100,down:drop:5", "takes no capacity"},
		{"crash:1000:100,down:buffer:0", "at least 1"},
		{"down:buffer:64", "requires a crash"},
		{"part:1000", "want part:FROM:TO"},
		{"part:1000:2000:0++1", "empty link in list"},
		{"part:1000:2000:0+x", "bad partition link"},
	}
	for _, tc := range cases {
		cfg, err := ParseNetfaultSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseNetfaultSpec(%q) accepted: %+v", tc.spec, cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseNetfaultSpec(%q) error %q does not mention %q", tc.spec, err, tc.want)
		}
	}
}

func TestParseAckSpec(t *testing.T) {
	if _, has, err := ParseAckSpec(""); has || err != nil {
		t.Errorf("empty ack spec = hasSpec %v, %v", has, err)
	}
	ack, has, err := ParseAckSpec("30")
	if err != nil || !has || ack.Timeout != 30 || ack.Budget != 0 {
		t.Errorf("ParseAckSpec(30) = %+v, %v, %v", ack, has, err)
	}
	ack, _, err = ParseAckSpec("30:6:2:40:0.25")
	if err != nil {
		t.Fatal(err)
	}
	want := netfault.Ack{Timeout: 30, Budget: 6, BackoffBase: 2, BackoffMax: 40, Jitter: 0.25}
	if ack != want {
		t.Errorf("ack = %+v, want %+v", ack, want)
	}
	// An explicit zero or negative budget, base or max is rejected, not
	// replaced by the netfault defaults.
	for _, bad := range []string{"0", "-5", "x", "30:x", "30:4:5", "30:4:x:60", "30:4:5:60:x", "30:4:5:60:0.5:9",
		"30:0", "30:-1", "30:4:0:60", "30:4:-1:60", "30:4:5:0", "30:4:0:0", "30:4:nan:60"} {
		if _, _, err := ParseAckSpec(bad); err == nil {
			t.Errorf("ParseAckSpec(%q) accepted", bad)
		}
	}
}

func TestParseDStateSpec(t *testing.T) {
	if ds, err := ParseDStateSpec(""); ds != nil || err != nil {
		t.Errorf("empty dstate spec = %+v, %v", ds, err)
	}
	cases := map[string]DStateSpec{
		"acks":          {Recovery: netfault.RecoverAcks},
		"ckpt:2500":     {Recovery: netfault.RecoverCheckpoint, CheckpointDT: 2500},
		"ckpt:2500:500": {Recovery: netfault.RecoverCheckpoint, CheckpointDT: 2500, ClientTO: 500},
		"cold":          {Recovery: netfault.RecoverCold},
		"cold:4000":     {Recovery: netfault.RecoverCold, RelearnT: 4000},
		"cold:4000:600": {Recovery: netfault.RecoverCold, RelearnT: 4000, ClientTO: 600},
	}
	for s, want := range cases {
		ds, err := ParseDStateSpec(s)
		if err != nil {
			t.Errorf("ParseDStateSpec(%q): %v", s, err)
			continue
		}
		if *ds != want {
			t.Errorf("ParseDStateSpec(%q) = %+v, want %+v", s, *ds, want)
		}
	}
	for _, bad := range []string{"warm", "acks:1", "ckpt", "ckpt:", "ckpt:0", "ckpt:-1", "cold:0", "cold:1:2:3"} {
		if ds, err := ParseDStateSpec(bad); err == nil {
			t.Errorf("ParseDStateSpec(%q) accepted: %+v", bad, ds)
		}
	}
}

func TestNetfaultParamsBuild(t *testing.T) {
	if cfg, err := (NetfaultParams{}).Build(4); cfg != nil || err != nil {
		t.Errorf("empty params = %+v, %v", cfg, err)
	}
	cfg, err := NetfaultParams{
		Netfault: "loss:0.05,lat:2,crash:15000:100,down:buffer",
		AckTO:    "30",
		DState:   "ckpt:2000",
	}.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dispatcher.Recovery != netfault.RecoverCheckpoint || cfg.Dispatcher.CheckpointDT != 2000 {
		t.Errorf("dispatcher = %+v", cfg.Dispatcher)
	}
	if cfg.Dispatcher.BufferCap != netfault.DefaultBufferCap {
		t.Errorf("buffer cap %d, want the default applied by Validate", cfg.Dispatcher.BufferCap)
	}
	if cfg.Ack.Timeout != 30 || cfg.Ack.Budget != netfault.DefaultAckBudget {
		t.Errorf("ack = %+v", cfg.Ack)
	}

	// Lossy links without -ackto must be rejected with a pointer at the
	// missing flag.
	if _, err := (NetfaultParams{Netfault: "loss:0.1"}).Build(4); err == nil ||
		!strings.Contains(err.Error(), "-ackto") {
		t.Errorf("lossy without ack = %v", err)
	}
	// An explicit zero budget is an error, not the default budget.
	if _, err := (NetfaultParams{Netfault: "loss:0.1", AckTO: "30:0"}).Build(4); err == nil ||
		!strings.Contains(err.Error(), "budget 0") {
		t.Errorf("zero ack budget = %v", err)
	}
	// -dstate without a crash item has nothing to recover.
	if _, err := (NetfaultParams{DState: "cold"}).Build(4); err == nil ||
		!strings.Contains(err.Error(), "crash") {
		t.Errorf("dstate without crash = %v", err)
	}
	// An ack loop alone is valid: reliability tracking on a perfect
	// network.
	cfg, err = NetfaultParams{AckTO: "30"}.Build(4)
	if err != nil || !cfg.Enabled() {
		t.Errorf("ack-only params = %+v, %v", cfg, err)
	}
}
