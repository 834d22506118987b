// Command sweep runs a utilization sweep for a set of policies on an
// arbitrary cluster and prints the three paper metrics per point — the
// general-purpose version of the fig5 harness.
//
// Usage:
//
//	sweep -speeds 1,1,2,10 -policies ORR,WRR,LL -from 0.3 -to 0.9 -step 0.1 \
//	      -duration 2e5 -reps 3 [-csv out.csv]
//
// With -mtbf/-mttr set, computers fail and recover during the sweep and
// a fourth table reports jobs lost and degraded-window response times,
// e.g.:
//
//	sweep -speeds 1,1,2,10 -policies ORR,ORRA -from 0.2 -to 0.6 -step 0.2 \
//	      -mtbf 2e4 -mttr 2e3 -fate requeue -realloc resolve
//
// With any overload-protection flag set (-qcap, -admit, -deadline,
// -timeout, -retry, -backoff, -breaker) the sweep may cross rho = 1 and
// three extra tables report goodput, drops and deadline misses per
// point.
//
// With -netfault set (plus -ackto/-dstate), the dispatcher→computer
// control plane is unreliable across the whole sweep and two extra
// tables report jobs lost to the network and resubmission counts per
// point.
//
// With -ctrl set, the scalable policies' own control messages (JIQ
// idle tokens, jsq/pod(d) queue-length queries, counter-sync frames)
// travel over faulty links too, and two extra tables report control
// messages lost and query wait charged to dispatch latency per point.
//
// Observability: -probe adds an instrumented pass per sweep cell and a
// table of per-computer interarrival CVs (mean across computers) — the
// paper's §3 burstiness measurement, showing round-robin splitting
// (ORR) produces smoother substreams than probabilistic splitting
// (ORAN). -events names a directory receiving one JSONL lifecycle
// stream per cell, -sample-dt adds cadence samples, -manifest writes a
// sweep-level provenance record, and -debug-addr serves expvar/pprof
// with the live metrics of the cell currently running.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/probe"
	"heterosched/internal/report"
	"heterosched/internal/stats"
)

func main() {
	speedsFlag := flag.String("speeds", "1,1,2,10", "comma-separated relative computer speeds")
	policiesFlag := flag.String("policies", "WRAN,ORAN,WRR,ORR,LL", "comma-separated policies")
	from := flag.Float64("from", 0.3, "first utilization")
	to := flag.Float64("to", 0.9, "last utilization (inclusive)")
	step := flag.Float64("step", 0.1, "utilization step")
	duration := flag.Float64("duration", 2e5, "simulated seconds per replication")
	reps := flag.Int("reps", 3, "replications per point")
	seed := flag.Uint64("seed", 1, "root seed")
	cv := flag.Float64("cv", 3.0, "arrival CV (1 = Poisson)")
	csvPath := flag.String("csv", "", "also write the response-ratio table as CSV")
	probeFlag := flag.Bool("probe", false, "instrument one extra pass per cell and report interarrival CVs")
	events := flag.String("events", "", "directory receiving one JSONL lifecycle event stream per sweep cell")
	manifestPath := flag.String("manifest", "", "write a sweep manifest (config, seed, git, wall/sim time, metrics) to this JSON file")
	sampleDT := flag.Float64("sample-dt", 0, "also sample probe series every this many simulated seconds (implies -probe)")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	var layers cli.LayerFlags
	layers.Register(flag.CommandLine)
	flag.Parse()
	start := time.Now()

	speeds, err := cli.ParseSpeeds(*speedsFlag)
	if err != nil {
		fatal(err)
	}
	if err := cli.ValidateSweepRange(*from, *to, *step); err != nil {
		fatal(err)
	}
	params := cli.RunParams{Rho: *from, Duration: *duration, Reps: *reps, CV: *cv, MeanSize: 76.8}
	if err := params.Validate(); err != nil {
		fatal(err)
	}
	pp := cli.ProbeParams{
		Probe: *probeFlag, Events: *events, Manifest: *manifestPath,
		SampleDT: *sampleDT, DebugAddr: *debugAddr,
	}
	if err := pp.Validate(); err != nil {
		fatal(err)
	}
	cfg, opts, err := layers.Build(speeds)
	if err != nil {
		fatal(err)
	}
	names, factories, err := cli.ParsePolicies(*policiesFlag, opts)
	if err != nil {
		fatal(err)
	}
	if pp.Events != "" {
		if err := os.MkdirAll(pp.Events, 0o755); err != nil {
			fatal(err)
		}
	}
	if pp.DebugAddr != "" {
		addr, _, errc, err := probe.ServeDebug(pp.DebugAddr)
		if err != nil {
			fatal(err)
		}
		go func() {
			if serr := <-errc; serr != nil {
				fmt.Fprintln(os.Stderr, "sweep: debug server:", serr)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars\n", addr)
	}
	cfg.Duration = *duration
	cfg.Seed = *seed
	cfg.ArrivalCV = *cv
	cfg.ExponentialArrivals = *cv == 1

	rhos := sweepValues(*from, *to, *step)
	if len(rhos) == 0 {
		fatal(fmt.Errorf("empty sweep: from=%v to=%v step=%v", *from, *to, *step))
	}

	tables, csvTable, probeMetrics, err := runSweep(cfg, rhos, names, factories, *reps, pp, opts.Sharding.Enabled())
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		if _, err := t.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := csvTable.WriteCSV(f); err != nil {
			fatal(err)
		}
	}

	if pp.Manifest != "" {
		m := probe.NewManifest("sweep", os.Args[1:], start)
		m.Seed = *seed
		m.Config["speeds"] = cfg.Speeds
		m.Config["policies"] = *policiesFlag
		m.Config["from"] = *from
		m.Config["to"] = *to
		m.Config["step"] = *step
		m.Config["duration"] = *duration
		m.Config["reps"] = *reps
		m.Config["cv"] = *cv
		layers.Record(m.Config, cfg, opts)
		if pp.SampleDT > 0 {
			m.Config["sample_dt"] = pp.SampleDT
		}
		m.WallSeconds = time.Since(start).Seconds()
		cells := float64(len(rhos) * len(names))
		runsPerCell := float64(*reps)
		if pp.Active() {
			runsPerCell++
		}
		m.SimTime = *duration * cells * runsPerCell
		m.Metrics["cells"] = cells
		for k, v := range probeMetrics {
			m.Metrics[k] = v
		}
		if err := m.WriteFile(pp.Manifest); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "manifest written to %s\n", pp.Manifest)
	}
}

// sweepValues enumerates from..to by step (inclusive, with rounding slop).
func sweepValues(from, to, step float64) []float64 {
	if step <= 0 || to < from {
		return nil
	}
	var out []float64
	for x := from; x <= to+step/1e6; x += step {
		out = append(out, x)
	}
	return out
}

// runSweep executes the sweep over base, a cluster.Config template
// holding everything but the utilization, and renders the metric
// tables; the second return is the response-ratio table (for CSV
// output). With a fault config, two extra tables report jobs lost and
// the degraded-window mean response time per point; with an overload
// config, three more report goodput, drops and deadline misses. With
// probe instrumentation active, one extra uninstrumented-identical pass
// runs per cell and the third return carries per-cell probe metrics for
// the manifest.
//
// A cell whose run fails — typically an infeasible allocation
// (alloc.ErrBadInput) at extreme rho or degenerate speeds — is skipped:
// its cells render as "-" and a table note names the cell and the
// error, instead of aborting the whole sweep.
func runSweep(base cluster.Config, rhos []float64, names []string, factories []cluster.PolicyFactory,
	reps int, pp cli.ProbeParams, sharded bool,
) ([]*report.Table, *report.Table, map[string]float64, error) {
	headers := append([]string{"rho"}, names...)
	ratio := report.NewTable("mean response ratio", headers...)
	timeT := report.NewTable("mean response time (s)", headers...)
	fair := report.NewTable("fairness (sd of response ratio)", headers...)
	withFaults := base.Faults.Enabled()
	var lostT, degT *report.Table
	if withFaults {
		lostT = report.NewTable("jobs lost (mean per replication)", headers...)
		degT = report.NewTable("mean response time in degraded windows (s)", headers...)
	}
	withOverload := base.Overload.Enabled()
	var goodT, dropT, missT, pctT *report.Table
	if withOverload {
		goodT = report.NewTable("goodput (jobs completed in time, sum across replications)", headers...)
		dropT = report.NewTable("jobs dropped (shed + retry budget + deadline kills)", headers...)
		missT = report.NewTable("deadline misses (killed + late)", headers...)
		pctT = report.NewTable("resp time p50/p90/p99/p999 (s, streaming histograms merged across replications)", headers...)
		pctT.AddNote("log-bucketed bins (no retained samples): each quantile carries relative error at most the bin-edge ratio minus one, ~6%% for the 400-bin [1e-3,1e7) geometry")
	}
	withNetfault := base.Netfault.Enabled()
	var netT, resubT *report.Table
	if withNetfault {
		netT = report.NewTable("jobs lost to the network + dropped by the dispatcher (sum across replications)", headers...)
		resubT = report.NewTable("network resubmissions (sum across replications)", headers...)
	}
	withCtrl := base.Ctrl.Enabled()
	var ctrlLostT, ctrlWaitT *report.Table
	if withCtrl {
		ctrlLostT = report.NewTable("control messages lost (tokens + queries + sync frames, sum across replications)", headers...)
		ctrlWaitT = report.NewTable("query wait charged to dispatch latency (s, sum across replications)", headers...)
		ctrlWaitT.AddNote("\"-\" for policies that issue no queue-length probes (the layer still carries their tokens or sync frames)")
	}
	withProbe := pp.Active()
	probeMetrics := map[string]float64{}
	var skipped []string
	var cvT *report.Table
	if pp.Probe || pp.SampleDT > 0 {
		cvT = report.NewTable("interarrival CV (mean across computers, instrumented pass)", headers...)
		cvT.AddNote("the paper's §3 burstiness measurement: round-robin splitting smooths each computer's arrival substream, probabilistic splitting does not")
	}
	var shardT *report.Table
	if cvT != nil && sharded {
		shardT = report.NewTable("per-dispatcher interarrival CV (mean across replicas, instrumented pass)", headers...)
		shardT.AddNote("each dispatcher replica's private arrival substream; \"-\" for policies that ran unsharded")
	}
	var decompT *report.Table
	if withProbe {
		decompT = report.NewTable("T̄ decomposition (% queue / service / net / retry, instrumented pass)", headers...)
		decompT.AddNote("per-component share of mean response time from the probe span layer; components sum to T̄ per job")
	}
	for _, rho := range rhos {
		rowR := []string{report.F(rho)}
		rowT := []string{report.F(rho)}
		rowF := []string{report.F(rho)}
		rowL := []string{report.F(rho)}
		rowD := []string{report.F(rho)}
		rowG := []string{report.F(rho)}
		rowX := []string{report.F(rho)}
		rowM := []string{report.F(rho)}
		rowN := []string{report.F(rho)}
		rowS := []string{report.F(rho)}
		rowC := []string{report.F(rho)}
		rowP := []string{report.F(rho)}
		rowDC := []string{report.F(rho)}
		rowK := []string{report.F(rho)}
		rowCL := []string{report.F(rho)}
		rowCW := []string{report.F(rho)}
		for k, f := range factories {
			cfg := base
			cfg.Utilization = rho
			res, err := cluster.RunReplications(cfg, f, reps)
			if err != nil {
				// Skip the bad cell instead of aborting the sweep: fill
				// every table with "-" and report the reason in a note.
				skipped = append(skipped, fmt.Sprintf("%s at rho=%s: %v", names[k], report.F(rho), err))
				rowR = append(rowR, "-")
				rowT = append(rowT, "-")
				rowF = append(rowF, "-")
				if withFaults {
					rowL = append(rowL, "-")
					rowD = append(rowD, "-")
				}
				if withOverload {
					rowG = append(rowG, "-")
					rowX = append(rowX, "-")
					rowM = append(rowM, "-")
					rowP = append(rowP, "-")
				}
				if withNetfault {
					rowN = append(rowN, "-")
					rowS = append(rowS, "-")
				}
				if withCtrl {
					rowCL = append(rowCL, "-")
					rowCW = append(rowCW, "-")
				}
				if cvT != nil {
					rowC = append(rowC, "-")
				}
				if shardT != nil {
					rowK = append(rowK, "-")
				}
				if decompT != nil {
					rowDC = append(rowDC, "-")
				}
				continue
			}
			rowR = append(rowR, report.F(res.MeanResponseRatio.Mean))
			rowT = append(rowT, report.F(res.MeanResponseTime.Mean))
			rowF = append(rowF, report.F(res.Fairness.Mean))
			if withFaults {
				rowL = append(rowL, report.F(res.JobsLost.Mean))
				rowD = append(rowD, report.F(res.MeanResponseTimeDegraded.Mean))
			}
			if withOverload {
				var ov cluster.OverloadStats
				for _, run := range res.Runs {
					ov.AddCounters(run.Overload)
				}
				rowG = append(rowG, strconv.FormatInt(ov.Goodput, 10))
				rowX = append(rowX, strconv.FormatInt(ov.Dropped(), 10))
				rowM = append(rowM, strconv.FormatInt(ov.DeadlineMisses, 10))
				rowP = append(rowP, mergedPercentiles(res.Runs))
			}
			if withNetfault {
				var nf cluster.NetfaultStats
				for _, run := range res.Runs {
					nf.AddCounters(run.Netfault)
				}
				rowN = append(rowN, strconv.FormatInt(nf.LostNetwork+nf.DownDropped, 10))
				rowS = append(rowS, strconv.FormatInt(nf.Resubmits, 10))
			}
			if withCtrl {
				var cp ctrlplane.Stats
				for _, run := range res.Runs {
					cp.Add(run.Ctrl)
				}
				rowCL = append(rowCL, strconv.FormatInt(cp.TokensLost+cp.QueriesLost+cp.SyncLost, 10))
				if cp.Decisions > 0 {
					rowCW = append(rowCW, report.F(cp.QueryWait))
				} else {
					rowCW = append(rowCW, "-")
				}
			}
			if withProbe {
				meanCV, shardCV, tot, err := probeCell(cfg, f, names[k], rho, pp)
				if err != nil {
					skipped = append(skipped, fmt.Sprintf("%s at rho=%s (probe pass): %v", names[k], report.F(rho), err))
					if cvT != nil {
						rowC = append(rowC, "-")
					}
					if shardT != nil {
						rowK = append(rowK, "-")
					}
					if decompT != nil {
						rowDC = append(rowDC, "-")
					}
				} else {
					if cvT != nil {
						rowC = append(rowC, report.F(meanCV))
						probeMetrics[fmt.Sprintf("interarrival_cv.%s.rho%s", names[k], report.F(rho))] = meanCV
					}
					if shardT != nil {
						if math.IsNaN(shardCV) {
							rowK = append(rowK, "-")
						} else {
							rowK = append(rowK, report.F(shardCV))
							probeMetrics[fmt.Sprintf("shard_cv.%s.rho%s", names[k], report.F(rho))] = shardCV
						}
					}
					if decompT != nil {
						rowDC = append(rowDC, decompCell(tot))
						if tot.N > 0 {
							probeMetrics[fmt.Sprintf("queue_share.%s.rho%s", names[k], report.F(rho))] = tot.Queue / tot.Total()
						}
					}
				}
			}
		}
		ratio.AddRow(rowR...)
		timeT.AddRow(rowT...)
		fair.AddRow(rowF...)
		if withFaults {
			lostT.AddRow(rowL...)
			degT.AddRow(rowD...)
		}
		if withOverload {
			goodT.AddRow(rowG...)
			dropT.AddRow(rowX...)
			missT.AddRow(rowM...)
			pctT.AddRow(rowP...)
		}
		if withNetfault {
			netT.AddRow(rowN...)
			resubT.AddRow(rowS...)
		}
		if withCtrl {
			ctrlLostT.AddRow(rowCL...)
			ctrlWaitT.AddRow(rowCW...)
		}
		if cvT != nil {
			cvT.AddRow(rowC...)
		}
		if shardT != nil {
			shardT.AddRow(rowK...)
		}
		if decompT != nil {
			decompT.AddRow(rowDC...)
		}
	}
	note := fmt.Sprintf("%d replications × %.3g s per point, arrival CV %.3g", reps, base.Duration, base.ArrivalCV)
	if withFaults {
		note += fmt.Sprintf("; failures MTBF %s, MTTR %s, fate %s",
			base.Faults.Uptime, base.Faults.Downtime, base.Faults.Fate)
	}
	if withOverload {
		note += fmt.Sprintf("; overload protection: admission %s, queue cap %d", base.Overload.Admission, base.Overload.QueueCap)
	}
	if withNetfault {
		note += "; network faults enabled (see the netfault tables)"
	}
	if withCtrl {
		note += "; control-plane faults enabled (see the control-plane tables)"
	}
	ratio.AddNote("%s", note)
	for _, s := range skipped {
		ratio.AddNote("skipped cell %s", s)
	}
	tables := []*report.Table{timeT, ratio, fair}
	if withFaults {
		tables = append(tables, lostT, degT)
	}
	if withOverload {
		tables = append(tables, goodT, dropT, missT, pctT)
	}
	if withNetfault {
		tables = append(tables, netT, resubT)
	}
	if withCtrl {
		tables = append(tables, ctrlLostT, ctrlWaitT)
	}
	if cvT != nil {
		tables = append(tables, cvT)
	}
	if shardT != nil {
		tables = append(tables, shardT)
	}
	if decompT != nil {
		tables = append(tables, decompT)
	}
	return tables, ratio, probeMetrics, nil
}

// mergedPercentiles merges the replications' streaming response-time
// histograms (same geometry by construction — one overload layer
// configuration per sweep) and formats p50/p90/p99/p999. Merging into
// the first replication's histogram is safe: its exact TimeP* fields
// were computed at finish time and the histogram is not reused.
func mergedPercentiles(runs []*cluster.Result) string {
	var acc *stats.Histogram
	for _, run := range runs {
		if run.Overload == nil || run.Overload.TimeHist == nil {
			continue
		}
		if acc == nil {
			acc = run.Overload.TimeHist
			continue
		}
		if err := acc.Merge(run.Overload.TimeHist); err != nil {
			return "-"
		}
	}
	if acc == nil || acc.N() == 0 {
		return "-"
	}
	qs := acc.Quantiles(0.50, 0.90, 0.99, 0.999)
	return fmt.Sprintf("%s / %s / %s / %s",
		report.F(qs[0]), report.F(qs[1]), report.F(qs[2]), report.F(qs[3]))
}

// decompCell formats a span aggregate as per-component percent shares
// of the summed response time.
func decompCell(tot probe.SpanStats) string {
	if tot.N == 0 {
		return "-"
	}
	t := tot.Total()
	if t <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f / %.0f / %.0f / %.0f",
		100*tot.Queue/t, 100*tot.Service/t, 100*tot.Net/t, 100*tot.Retry/t)
}

// probeCell runs one instrumented pass for a sweep cell (policy × rho)
// and returns the gap-weighted mean interarrival CV across computers,
// the gap-weighted mean interarrival CV across dispatcher replicas (NaN
// when the cell's policy ran unsharded), plus the span layer's T̄
// decomposition over counted jobs. With an events directory configured
// it writes the cell's lifecycle stream to "<dir>/<policy>-rho<rho>.jsonl".
func probeCell(cfg cluster.Config, f cluster.PolicyFactory, name string, rho float64, pp cli.ProbeParams) (float64, float64, probe.SpanStats, error) {
	var w probe.EventWriter
	var ef *os.File
	if pp.Events != "" {
		var err error
		ef, err = os.Create(filepath.Join(pp.Events, fmt.Sprintf("%s-rho%s.jsonl", name, report.F(rho))))
		if err != nil {
			return 0, 0, probe.SpanStats{}, err
		}
		w = probe.NewJSONLWriter(ef)
	}
	pb, err := probe.New(probe.Options{Metrics: pp.Probe || pp.SampleDT > 0, SampleDT: pp.SampleDT, Events: w, Spans: true})
	if err != nil {
		return 0, 0, probe.SpanStats{}, err
	}
	probe.PublishLive(pb)
	// Cells run back to back: release this cell's probe from the debug
	// endpoint once done so the live view always tracks the current cell.
	defer probe.UnpublishLive(pb)
	cfg.Probe = pb
	if _, err := cluster.Run(cfg, f()); err != nil {
		return 0, 0, probe.SpanStats{}, err
	}
	if err := pb.Flush(); err != nil {
		return 0, 0, probe.SpanStats{}, err
	}
	if ef != nil {
		if err := ef.Close(); err != nil {
			return 0, 0, probe.SpanStats{}, err
		}
	}
	var sum, n float64
	for i := range cfg.Speeds {
		cv, gaps := pb.InterarrivalCV(i)
		if gaps > 1 {
			sum += cv * float64(gaps)
			n += float64(gaps)
		}
	}
	shardCV := math.NaN()
	if pb.Shards() > 1 {
		var ksum, kn float64
		for k := 0; k < pb.Shards(); k++ {
			cv, gaps := pb.ShardCV(k)
			if gaps > 1 {
				ksum += cv * float64(gaps)
				kn += float64(gaps)
			}
		}
		if kn > 0 {
			shardCV = ksum / kn
		}
	}
	meanCV := 0.0
	if n > 0 {
		meanCV = sum / n
	}
	return meanCV, shardCV, pb.SpanTotals(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
