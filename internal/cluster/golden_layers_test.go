package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/drift"
	"heterosched/internal/faults"
	"heterosched/internal/netfault"
	"heterosched/internal/probe"
	"heterosched/internal/sched"
)

// layersOnCase is one seeded layers-on run pinned by TestGoldenLayersOn.
type layersOnCase struct {
	name   string
	cfg    func() cluster.Config
	policy func() cluster.Policy
	// Digests of the formatted Result, the JSONL event stream and the
	// Chrome trace span export.
	result, events, spans string
}

// goldenBase is the shared fleet of the layers-on goldens: short, drained,
// no warm-up, so every job reaches a terminal event inside the digests.
func goldenBase(seed uint64) cluster.Config {
	return cluster.Config{
		Speeds:         []float64{1, 1, 2, 10},
		Utilization:    0.6,
		Duration:       2e4,
		WarmupFraction: -1,
		Seed:           seed,
	}
}

func staticORR() cluster.Policy { return sched.ORR() }

// layersOnCases covers every dispatch path through Run with its optional
// layers on: failure requeues, netfault redispatch and failover,
// overload retries and probes, drift with re-planning across cold
// dispatcher restarts, and the control plane's token, sync and
// decision-cost paths. Faults with a detection lag plus partitions with
// overload off are deliberately absent: that combination is pinned by
// TestPartitionEdgeRespectsDetectionLag instead.
var layersOnCases = []layersOnCase{
	{
		name: "faults-requeue-lag",
		cfg: func() cluster.Config {
			c := goldenBase(41)
			c.Faults = &faults.Config{
				Uptime:       dist.NewExponential(3000),
				Downtime:     dist.NewExponential(300),
				Fate:         faults.RequeueToDispatcher,
				MaxRetries:   2,
				DetectionLag: 40,
			}
			c.SampleInterval = 1000
			return c
		},
		policy: staticORR,
		result: "1198edb4a0c4cc5be439f73028cc3475d8beddaa00ec7a4f1cb791feed3e74e6",
		events: "42016646c793c0281bbdad800d8f3fbdb0ecb0a6a0924c5457c6560f203beaa0",
		spans:  "68965ed37cfc2fd021d4a4d4588f52fcc855d29af671c2a3be0e9013d2464930",
	},
	{
		name: "netfault-failover",
		cfg: func() cluster.Config {
			c := goldenBase(42)
			c.Faults = &faults.Config{
				Uptime:   dist.NewExponential(4000),
				Downtime: dist.NewExponential(200),
				Fate:     faults.RequeueToDispatcher,
			}
			c.Netfault = &netfault.Config{
				Link:       netfault.Link{Latency: dist.NewExponential(3), Loss: 0.03, Dup: 0.03},
				Partitions: []netfault.Partition{{From: 3000, To: 4500, Links: []int{3}}, {From: 9000, To: 9400}},
				Dispatcher: &netfault.Dispatcher{
					Uptime:   dist.NewExponential(3000),
					Downtime: dist.NewExponential(200),
					Down:     netfault.DownFailover,
					Recovery: netfault.RecoverCheckpoint,
				},
				Ack: netfault.Ack{Timeout: 40, Budget: 4},
			}
			return c
		},
		policy: staticORR,
		result: "0261d8e99722c59a4a0e794cb67aab2a5d045d8a2a97d23597338f049036422e",
		events: "ee6d1896f70da873d9dafb71fad361fd4d6f6e4759ec1aba0c5442cdfa52b79b",
		spans:  "4401909dab099e43476665dcf899326591cb6895f280adfbede0216357fdea1a",
	},
	{
		name: "netfault-buffer",
		cfg: func() cluster.Config {
			c := goldenBase(43)
			c.Netfault = &netfault.Config{
				Link:       netfault.Link{Latency: dist.NewExponential(2), Loss: 0.05, Dup: 0.05},
				PerLink:    map[int]netfault.Link{2: {Latency: dist.NewExponential(8), Loss: 0.1}},
				Partitions: []netfault.Partition{{From: 2000, To: 5000, Links: []int{0, 3}}},
				Dispatcher: &netfault.Dispatcher{
					Uptime:    dist.NewExponential(4000),
					Downtime:  dist.NewExponential(300),
					Down:      netfault.DownBuffer,
					BufferCap: 20,
					Recovery:  netfault.RecoverAcks,
				},
				Ack: netfault.Ack{Timeout: 30, Budget: 3},
			}
			return c
		},
		policy: staticORR,
		result: "9b81df2eef226e19ddb44fcf8b86a9bfff4af08af5a18933780489123ca2bb5a",
		events: "64829bcd3452de92e9efa185543ee7a6000119b17f4f9fed7a7c57aaf74b807b",
		spans:  "ee67082dc66c3feb6a5909df6b364ecfecac54b3bb0143234f6905e96649e104",
	},
	{
		name: "faults-overload-netfault",
		cfg: func() cluster.Config {
			c := goldenBase(44)
			c.Utilization = 0.8
			c.Faults = &faults.Config{
				Uptime:       dist.NewExponential(3000),
				Downtime:     dist.NewExponential(300),
				Fate:         faults.RequeueToDispatcher,
				MaxRetries:   3,
				DetectionLag: 30,
			}
			c.Overload = &cluster.OverloadConfig{
				QueueCap:       30,
				Admission:      cluster.RejectWhenFull,
				Deadline:       dist.NewExponential(1500),
				DeadlineAction: cluster.DeadlineKill,
				Timeout:        250,
				RetryBudget:    2,
				BackoffJitter:  0.5,
				Breaker:        &dispatch.BreakerConfig{Consecutive: 3, Cooldown: 200},
			}
			c.Netfault = &netfault.Config{
				Link:       netfault.Link{Latency: dist.NewExponential(10), Loss: 0.05, Dup: 0.02},
				Partitions: []netfault.Partition{{From: 5000, To: 6500, Links: []int{1, 3}}},
				Dispatcher: &netfault.Dispatcher{
					Uptime:   dist.NewExponential(6000),
					Downtime: dist.NewExponential(150),
					Down:     netfault.DownBuffer,
					Recovery: netfault.RecoverAcks,
				},
				Ack: netfault.Ack{Timeout: 60, Budget: 4},
			}
			return c
		},
		policy: staticORR,
		result: "ff2e7f981062c4f8239f2cf342288a88a254ee2a8de17f083ae8f043803ddd83",
		events: "61a6d2e4bd889a842d79c8f10063633d789c2066389672aa3171a61e5396aed8",
		spans:  "6bbb92b179316df0193cfda0104591fb765df351c75bd953d37ca2ec74941bf6",
	},
	{
		name: "drift-replan-cold",
		cfg: func() cluster.Config {
			c := goldenBase(45)
			c.Faults = &faults.Config{
				Uptime:       dist.NewExponential(5000),
				Downtime:     dist.NewExponential(200),
				Fate:         faults.RequeueToDispatcher,
				DetectionLag: 20,
			}
			c.Drift = &drift.Config{
				Arrival:    drift.Step{At: 8000, Factor: 1.3},
				SpeedSteps: []drift.SpeedStep{{At: 12000, Computer: 3, Factor: 0.5}},
			}
			c.Adapt = &cluster.AdaptConfig{CheckInterval: 100, Cooldown: 500, RhoTrip: 0.8, Estimator: cluster.EstimatorConfig{Window: 512}}
			c.Netfault = &netfault.Config{
				Link: netfault.Link{Latency: dist.NewExponential(1)},
				Dispatcher: &netfault.Dispatcher{
					Uptime:   dist.NewExponential(5000),
					Downtime: dist.NewExponential(100),
					Down:     netfault.DownDrop,
					Recovery: netfault.RecoverCold,
					RelearnT: 600,
				},
				Ack: netfault.Ack{Timeout: 20, Budget: 3},
			}
			c.SampleInterval = 500
			return c
		},
		policy: staticORR,
		result: "d0c3411c55ee77d1263c37bad84a0633d15142cd55aaf1c034dfbaff2b31279f",
		events: "fc6e68acb1d5db39b27400677f945400633f5851297a75561678dc7528827beb",
		spans:  "a6de85e89e7a0e2dd07a77731810df286bd2bbe7e145fbe61c2b22e0fb774c3b",
	},
	{
		name: "jiq-k4-ctrl-partitions",
		cfg: func() cluster.Config {
			c := goldenBase(46)
			c.Speeds = []float64{1, 1, 2, 10, 1, 3, 2, 5}
			c.Ctrl = &ctrlplane.Config{
				Link:           netfault.Link{Loss: 0.1, Dup: 0.05, Latency: dist.NewExponential(2)},
				Partitions:     []netfault.Partition{{From: 3000, To: 6000, Links: []int{0, 3, 5}}},
				SyncPartitions: []netfault.Partition{{From: 1000, To: 8000, Links: []int{1}}},
				Lease:          100,
				QueryTO:        10,
			}
			return c
		},
		policy: func() cluster.Policy {
			p := sched.JIQ()
			p.Dispatchers = 4
			p.ShardBy = dispatch.ShardHash
			return p
		},
		result: "26f503d66cc38fc9afc4df5590d2015a54f44a3185f802272b02b00a144dd627",
		events: "526c8a82b1abf42ca440fe97f033a42461b4af4b6324415eb3a05c94a0c90c5d",
		spans:  "37a7b1cb5407b7706c6a706fc96357cfd193ed790f1986a00ae49d09574bb372",
	},
	{
		name: "orr-k2-sync-partitions",
		cfg: func() cluster.Config {
			c := goldenBase(48)
			c.Ctrl = &ctrlplane.Config{
				Link:           netfault.Link{Dup: 0.2, Loss: 0.1, Latency: dist.NewExponential(1)},
				SyncPartitions: []netfault.Partition{{From: 4000, To: 9000, Links: []int{0}}},
				QueryTO:        1,
			}
			return c
		},
		policy: func() cluster.Policy {
			p := sched.ORR()
			p.Dispatchers = 2
			p.ShardBy = dispatch.ShardHash
			p.SyncEvery = 50
			return p
		},
		result: "8bdf59a04563bd68b5ad15e88d28dd49117d316c3428bbf5eb109f54d3a71b0f",
		events: "e86c1860127255f7b30860f979e44a2187266220ed9be7fdedccbf305d3add74",
		spans:  "9534ecef1370a6ae9b41447c7faf461323074c5173275f48ac107b6e0f500ce4",
	},
	{
		name: "pod2-qto-spans",
		cfg: func() cluster.Config {
			c := goldenBase(47)
			c.Ctrl = &ctrlplane.Config{
				Link:    netfault.Link{Loss: 0.05, Latency: dist.NewExponential(3)},
				QueryTO: 4,
			}
			return c
		},
		policy: func() cluster.Policy {
			p := sched.PodSpeed(2)
			p.Dispatchers = 2
			return p
		},
		result: "1918780493c22624f9e4ae4f913de4458bb20fbda43e44e3254060234814c56d",
		events: "368666c6421475821b13175782361fdf3df1ccdf307ceba4955137727baa5b3a",
		spans:  "601fb3c288a7f018356ce26b4ff23a81f3d118fe57671fbc33ee377002a7400e",
	},
}

// digestResult hashes the %+v rendering of a Result with every pointed-to
// stats block dereferenced, so no address reaches the digest.
func digestResult(r *cluster.Result) string {
	c := *r
	c.Overload, c.Adaptive, c.Netfault, c.Ctrl = nil, nil, nil, nil
	s := fmt.Sprintf("%+v", c)
	if o := r.Overload; o != nil {
		oc := *o
		oc.TimeHist = nil
		s += fmt.Sprintf("|overload %+v hist %+v", oc, *o.TimeHist)
	}
	if a := r.Adaptive; a != nil {
		s += fmt.Sprintf("|adaptive %+v", *a)
	}
	if n := r.Netfault; n != nil {
		s += fmt.Sprintf("|netfault %+v", *n)
	}
	if ct := r.Ctrl; ct != nil {
		s += fmt.Sprintf("|ctrl %+v", *ct)
	}
	return digest([]byte(s))
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// runLayersOn runs one case with a fully instrumented probe (metrics,
// cadence samples, events, spans) and returns the three digests.
func runLayersOn(t *testing.T, c layersOnCase) (result, events, spans string) {
	t.Helper()
	var evBuf, spanBuf bytes.Buffer
	ew := probe.NewJSONLWriter(&evBuf)
	tw := probe.NewChromeTraceWriter(&spanBuf)
	p, err := probe.New(probe.Options{Metrics: true, SampleDT: 700, Events: ew, Spans: true, SpanSink: tw})
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.cfg()
	cfg.Probe = p
	res, err := cluster.Run(cfg, c.policy())
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range res.Outcomes {
		sum += n
	}
	if sum != res.GeneratedJobs || res.FinalInSystem != 0 {
		t.Errorf("%s: ledger unbalanced: %d outcomes for %d jobs, %d in system", c.name, sum, res.GeneratedJobs, res.FinalInSystem)
	}
	return digestResult(res), digest(evBuf.Bytes()), digest(spanBuf.Bytes())
}

// TestGoldenLayersOn locks the layers-on paths bit-for-bit: the Result,
// the full lifecycle event stream and the span export of each case must
// hash to the case's recorded digests. A diff here means a change altered
// what some layer does, in which order, or what it reports.
func TestGoldenLayersOn(t *testing.T) {
	for _, c := range layersOnCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r, e, s := runLayersOn(t, c)
			if r != c.result || e != c.events || s != c.spans {
				t.Errorf("%s drifted from the layers-on golden digests:\n got  result=%q events=%q spans=%q\n want result=%q events=%q spans=%q",
					c.name, r, e, s, c.result, c.events, c.spans)
			}
		})
	}
}
