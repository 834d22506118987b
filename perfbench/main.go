// Command perfbench is the repository benchmark: it drives cluster.Run
// from outside on one named workload and prints one JSON line of
// metrics. See README.md for the workloads, the metrics and how to read
// the span export.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-base --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics (host cost and simulated
// quality); --trace 1 runs the traced per-layer pass instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: paper-base, fleet500-jiq or paper-faulted")
	seed := flag.Uint64("seed", 1, "workload seed; cell i runs with a Config.Seed derived from it")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	spansOut := flag.String("spans-out", "", "span export path for --trace 1 (default .bench_build/spans/<workload>-seed<N>.json)")
	setup := flag.Bool("setup-only", false, "internal: build the workload, run its cold first cell and exit")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *setup {
		if err := setupOnly(w, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		return 0
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	b, err := w.build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", w.name, err)
		return 1
	}

	var o outcome
	if *trace == 0 {
		err = measureUntraced(w, b, *seed, *seconds, &o)
	} else {
		path := *spansOut
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		}
		err = measureTraced(w, b, *seed, *seconds, path, &o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	for _, line := range o.info {
		fmt.Printf("# %s: %s gomaxprocs=%d\n", w.name, line, runtime.GOMAXPROCS(0))
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, o.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
