package cli

import (
	"strings"
	"testing"

	"heterosched/internal/dispatch"
	"heterosched/internal/sched"
)

func TestParseDispatchersSpec(t *testing.T) {
	cases := []struct {
		spec   string
		k      int
		by     dispatch.ShardBy
		wantOK bool
	}{
		{"", 1, dispatch.ShardRR, true},
		{"1", 1, dispatch.ShardRR, true},
		{"4", 4, dispatch.ShardRR, true},
		{"4:rr", 4, dispatch.ShardRR, true},
		{"16:hash", 16, dispatch.ShardHash, true},
		{" 8 : hash ", 8, dispatch.ShardHash, true},
		{"0", 0, 0, false},
		{"-2", 0, 0, false},
		{"4:mod", 0, 0, false},
		{"x", 0, 0, false},
		{"99999999", 0, 0, false},
		{"2.5", 0, 0, false},
	}
	for _, c := range cases {
		k, by, err := ParseDispatchersSpec(c.spec)
		if c.wantOK {
			if err != nil {
				t.Errorf("ParseDispatchersSpec(%q) = %v, want K=%d", c.spec, err, c.k)
				continue
			}
			if k != c.k || by != c.by {
				t.Errorf("ParseDispatchersSpec(%q) = %d,%v; want %d,%v", c.spec, k, by, c.k, c.by)
			}
		} else if err == nil {
			t.Errorf("ParseDispatchersSpec(%q) accepted, want rejection", c.spec)
		}
	}
}

func TestParseSyncSpec(t *testing.T) {
	for spec, want := range map[string]float64{
		"": 0, "never": 0, "NEVER": 0, "25": 25, " 1e3 ": 1000,
	} {
		got, err := ParseSyncSpec(spec)
		if err != nil || got != want {
			t.Errorf("ParseSyncSpec(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	// A numeric 0 is ambiguous (it used to silently mean "never") and is
	// rejected with a pointer to the explicit spelling.
	for _, bad := range []string{"nan", "inf", "-5", "often", "1h", "0", "0.0"} {
		if _, err := ParseSyncSpec(bad); err == nil {
			t.Errorf("ParseSyncSpec(%q) accepted, want rejection", bad)
		}
	}
}

func TestScaleSpeeds(t *testing.T) {
	base := []float64{1, 2, 10}
	got, err := ScaleSpeeds(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 10, 1, 2, 10, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("scaled to %d speeds, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("speed[%d] = %v, want %v (cyclic tiling)", i, got[i], want[i])
		}
	}
	// n at or below the input length, or zero, is a no-op.
	for _, n := range []int{0, 2, 3} {
		same, err := ScaleSpeeds(base, n)
		if err != nil || len(same) != len(base) {
			t.Errorf("ScaleSpeeds(3 speeds, %d) = %d speeds, %v; want unchanged", n, len(same), err)
		}
	}
	if _, err := ScaleSpeeds(base, MaxScaledComputers+1); err == nil {
		t.Error("ScaleSpeeds beyond the cap accepted")
	}
	if _, err := ScaleSpeeds(base, -1); err == nil {
		t.Error("ScaleSpeeds with a negative count accepted")
	}
}

// TestParsePolicySharding verifies the sharding options flow into the
// policies: static and scalable mnemonics shard, centralized dynamic
// ones reject K > 1.
func TestParsePolicySharding(t *testing.T) {
	sharded := PolicyOptions{
		Computers: 8,
		Sharding:  ShardingParams{Dispatchers: 4, ShardBy: dispatch.ShardHash, SyncEvery: 25},
	}
	f, err := ParsePolicy("ORR", sharded)
	if err != nil {
		t.Fatal(err)
	}
	st := f().(*sched.Static)
	if st.Dispatchers != 4 || st.ShardBy != dispatch.ShardHash || st.SyncEvery != 25 {
		t.Errorf("ORR sharding not applied: %+v", st)
	}
	if st.Name() != "ORRxK4" {
		t.Errorf("sharded ORR Name() = %q, want ORRxK4", st.Name())
	}

	f, err = ParsePolicy("jsq(2)", sharded)
	if err != nil {
		t.Fatal(err)
	}
	sc := f().(*sched.Scalable)
	if sc.Dispatchers != 4 || sc.ShardBy != dispatch.ShardHash {
		t.Errorf("jsq(2) sharding not applied: %+v", sc)
	}

	for _, central := range []string{"LL", "LL*", "JSQ2"} {
		if _, err := ParsePolicy(central, sharded); err == nil {
			t.Errorf("policy %s accepted -dispatchers 4, want rejection", central)
		}
		if _, err := ParsePolicy(central, PolicyOptions{Computers: 8}); err != nil {
			t.Errorf("policy %s rejected without sharding: %v", central, err)
		}
	}
}

// TestParseScalableMnemonics covers the jsq/pod/jiq grammar, including
// case-insensitivity and malformed members.
func TestParseScalableMnemonics(t *testing.T) {
	opts := PolicyOptions{Computers: 8}
	accept := map[string]string{
		"jsq(2)":       "jsq(2)",
		"JSQ(3)":       "jsq(3)",
		"pod(2)":       "pod(2):speed",
		"pod(2):speed": "pod(2):speed",
		"POD(4):Alpha": "pod(4):alpha",
		"jiq":          "jiq",
		" Jiq ":        "jiq",
	}
	for spec, want := range accept {
		f, err := ParsePolicy(spec, opts)
		if err != nil {
			t.Errorf("ParsePolicy(%q) = %v", spec, err)
			continue
		}
		if got := f().Name(); got != want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", spec, got, want)
		}
	}
	// jsq(9) and pod(12) exceed the 8-computer fleet: sampling more
	// computers than exist is a typo, not a policy.
	for _, bad := range []string{"jsq(0)", "jsq(65)", "jsq()", "jsq(2", "jsq(2):speed", "pod(x)", "pod(2):fast", "jiq(2)", "jsq(9)", "pod(12)"} {
		if _, err := ParsePolicy(bad, opts); err == nil {
			t.Errorf("ParsePolicy(%q) accepted, want rejection", bad)
		} else if strings.TrimSpace(err.Error()) == "" {
			t.Errorf("ParsePolicy(%q) rejected with an empty message", bad)
		}
	}
}

// TestParseShardingSpecs covers the combined flag builder.
func TestParseShardingSpecs(t *testing.T) {
	p, err := ParseShardingSpecs("4:hash", "100")
	if err != nil {
		t.Fatal(err)
	}
	if p.Dispatchers != 4 || p.ShardBy != dispatch.ShardHash || p.SyncEvery != 100 || !p.Enabled() {
		t.Errorf("ParseShardingSpecs = %+v", p)
	}
	p, err = ParseShardingSpecs("1", "never")
	if err != nil {
		t.Fatal(err)
	}
	if p.Enabled() {
		t.Errorf("K=1 params report Enabled: %+v", p)
	}
	if _, err := ParseShardingSpecs("0", "never"); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := ParseShardingSpecs("4", "sometimes"); err == nil {
		t.Error("bad sync spec accepted")
	}
}
