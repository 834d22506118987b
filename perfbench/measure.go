package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"heterosched/internal/cluster"
)

const (
	// minCells is the least number of timed cells a run measures, so
	// the tail percentile always has at least ten cells beyond it.
	minCells = 150
	// simCells is how many cells (1..simCells of the seed's sequence)
	// the simulated-quality metrics average over: a fixed set, so they
	// are identical for a seed whatever the host's speed.
	simCells = minCells
	// tailPct is the reported tail percentile of the cell time.
	tailPct = 90
	// setupReps is how many cold processes setup_s is the median of.
	setupReps = 5
)

// runtime/metrics read around every cell.
var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

// rtCounters is a snapshot of rtNames.
type rtCounters struct {
	allocs, bytes, gcs uint64
	gcCPU, userCPU     float64
}

func readRuntime(s []metrics.Sample) rtCounters {
	metrics.Read(s)
	return rtCounters{
		allocs:  s[0].Value.Uint64(),
		bytes:   s[1].Value.Uint64(),
		gcs:     s[2].Value.Uint64(),
		gcCPU:   s[3].Value.Float64(),
		userCPU: s[4].Value.Float64(),
	}
}

func newRuntimeSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	return s
}

// hostCost accumulates the host cost of a sequence of cells.
type hostCost struct {
	cells int
	jobs  int64
	ns    int64
	rt    rtCounters // summed deltas
	times []float64  // per-cell seconds
	// Per-cell heap objects allocated per generated job. A cell's count
	// is dominated by rare bursts (slab and arena growth at queue peaks),
	// so the reported figure is the median over cells.
	allocsPerJob []float64
}

// timedRun runs one cell and adds its host cost to hc.
func (hc *hostCost) timedRun(s []metrics.Sample, cfg cluster.Config, p cluster.Policy) (*cluster.Result, error) {
	before := readRuntime(s)
	start := time.Now()
	res, err := cluster.Run(cfg, p)
	d := time.Since(start).Nanoseconds()
	after := readRuntime(s)
	if err != nil {
		return nil, err
	}
	hc.cells++
	hc.jobs += res.GeneratedJobs
	hc.ns += d
	hc.rt.bytes += after.bytes - before.bytes
	hc.rt.gcs += after.gcs - before.gcs
	hc.rt.gcCPU += after.gcCPU - before.gcCPU
	hc.rt.userCPU += after.userCPU - before.userCPU
	hc.times = append(hc.times, float64(d)/1e9)
	jobs := float64(res.GeneratedJobs)
	hc.allocsPerJob = append(hc.allocsPerJob, float64(after.allocs-before.allocs)/jobs)
	return res, nil
}

func (hc *hostCost) nsPerJob() float64 { return float64(hc.ns) / float64(hc.jobs) }

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of v.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// simQuality averages the paper's metrics over cells.
type simQuality struct {
	n                                  int
	respTime, respRatio, fair, goodput float64
}

func (q *simQuality) add(res *cluster.Result) {
	q.n++
	q.respTime += res.MeanResponseTime
	q.respRatio += res.MeanResponseRatio
	q.fair += res.Fairness
	q.goodput += float64(res.Outcomes[cluster.OutcomeCompleted]) / float64(res.GeneratedJobs)
}

// outcome is what one invocation reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	info              []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and says why on standard error.
func (o *outcome) fail(what string, err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
}

// measureUntraced is the end-to-end pass: cold set-up in fresh
// processes, then timed cells back to back for the given time (and at
// least minCells), then the analytic oracle.
func measureUntraced(w workload, b *built, seed uint64, seconds float64, o *outcome) error {
	setup, err := measureSetup(w, seed, o)
	if err != nil {
		return err
	}

	// This process's own first cell is cold; it is checked but not timed.
	if err := coldCell(b, seed, o); err != nil {
		return err
	}

	// The reference kernel is timed before the first cell and after
	// every cell; each cell's time is scaled by the mean of the two
	// measurements around it (see host.go).
	s := newRuntimeSamples()
	var hc hostCost
	var q simQuality
	refs := []float64{refKernel()}
	var scaled []float64 // per-cell seconds on the reference host
	start := time.Now()
	for i := 1; i <= minCells || time.Since(start).Seconds() < seconds; i++ {
		cfg, err := b.cell(cellSeed(seed, i))
		if err != nil {
			return err
		}
		o.attempted++
		res, err := hc.timedRun(s, cfg, b.factory())
		if err == nil {
			refs = append(refs, refKernel())
			ref := (refs[len(refs)-2] + refs[len(refs)-1]) / 2
			scaled = append(scaled, hc.times[len(hc.times)-1]*refNominalNs/ref)
		}
		if err := checkResult(res, err); err != nil {
			o.fail(fmt.Sprintf("cell %d", i), err)
			continue
		}
		if i <= simCells {
			q.add(res)
		}
	}

	o.attempted++
	if err := checkOracle(); err != nil {
		o.fail("analytic oracle", err)
	}

	if hc.jobs == 0 || q.n == 0 {
		return fmt.Errorf("no cell completed")
	}
	jobs := float64(hc.jobs)
	ref := quantile(refs, 0.5)
	rawJobsPerS := jobs / (float64(hc.ns) / 1e9)
	rawP50, rawTail := quantile(hc.times, 0.5), quantile(hc.times, tailPct/100.0)
	var scaledSum float64
	for _, t := range scaled {
		scaledSum += t
	}
	o.set("jobs_per_s", "1/s", jobs/scaledSum)
	o.set("cell_s_p50", "s", quantile(scaled, 0.5))
	o.set("cell_s_tail", "s", quantile(scaled, tailPct/100.0))
	o.set("allocs_per_job", "count", quantile(hc.allocsPerJob, 0.5))
	o.set("bytes_per_job", "B", float64(hc.rt.bytes)/jobs)
	rss, err := vmHWM()
	if err != nil {
		return err
	}
	o.set("rss_peak_mb", "MB", rss)
	o.set("setup_s", "s", setup*refNominalNs/ref)
	n := float64(q.n)
	o.set("sim_resp_time_s", "s", q.respTime/n)
	o.set("sim_resp_ratio", "ratio", q.respRatio/n)
	o.set("sim_fairness", "ratio", q.fair/n)
	o.set("sim_goodput_frac", "frac", q.goodput/n)
	o.info = append(o.info,
		fmt.Sprintf("cells=%d jobs_per_cell=%.0f tail=p%d (%d cells beyond it) sim_cells=%d setup_reps=%d",
			hc.cells, jobs/float64(hc.cells), tailPct, hc.cells-int(math.Ceil(tailPct/100.0*float64(hc.cells))), q.n, setupReps),
		fmt.Sprintf("unscaled host time: jobs_per_s=%.6g cell_s_p50=%.6g cell_s_tail=%.6g setup_s=%.6g; reference kernel %.4g ns/op (nominal %g)",
			rawJobsPerS, rawP50, rawTail, setup, ref, refNominalNs))
	return nil
}

// coldCell runs the workload's cell 0 as this process's first, cold
// cell: it is checked, and counted as an operation, but not timed.
func coldCell(b *built, seed uint64, o *outcome) error {
	cfg, err := b.cell(cellSeed(seed, 0))
	if err != nil {
		return err
	}
	o.attempted++
	res, err := cluster.Run(cfg, b.factory())
	if err := checkResult(res, err); err != nil {
		o.fail("cell 0", err)
	}
	return nil
}

// measureSetup starts setupReps fresh copies of this program, each of
// which parses the workload, builds the policy and runs the cold cell 0,
// and returns the median wall time from process start to exit.
func measureSetup(w workload, seed uint64, o *outcome) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		o.attempted++
		start := time.Now()
		if err := cmd.Run(); err != nil {
			o.fail("set-up process", err)
			continue
		}
		times = append(times, time.Since(start).Seconds())
	}
	if len(times) == 0 {
		return 0, fmt.Errorf("every set-up process failed")
	}
	return quantile(times, 0.5), nil
}

// setupOnly is the body of a set-up process: build the workload and run
// the cold cell 0; a non-zero exit marks the set-up failed.
func setupOnly(w workload, seed uint64) error {
	b, err := w.build()
	if err != nil {
		return err
	}
	cfg, err := b.cell(cellSeed(seed, 0))
	if err != nil {
		return err
	}
	res, err := cluster.Run(cfg, b.factory())
	return checkResult(res, err)
}

// vmHWM returns the process's peak resident set in MiB.
func vmHWM() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
