package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"heterosched/internal/cluster"
)

// optional lists every optional interface cluster.Run looks for on a
// policy; a wrapper must implement exactly the ones its inner type does.
var optional = map[string]reflect.Type{
	"Replannable":      reflect.TypeOf((*cluster.Replannable)(nil)).Elem(),
	"FractionProvider": reflect.TypeOf((*cluster.FractionProvider)(nil)).Elem(),
	"CtrlAware":        reflect.TypeOf((*cluster.CtrlAware)(nil)).Elem(),
	"StateAware":       reflect.TypeOf((*cluster.StateAware)(nil)).Elem(),
	"ShardedPolicy":    reflect.TypeOf((*cluster.ShardedPolicy)(nil)).Elem(),
	"FaultAware":       reflect.TypeOf((*cluster.FaultAware)(nil)).Elem(),
	"DecisionCost":     reflect.TypeOf((*cluster.DecisionCost)(nil)).Elem(),
}

func TestWrapperForwardsExactlyTheInnerInterfaces(t *testing.T) {
	for _, w := range workloads {
		b, err := w.build()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		inner := b.factory()
		wrapped, ok := wrapPolicy(b.factory(), newTracer(nil))
		if !ok {
			t.Fatalf("%s: no wrapper for %T", w.name, inner)
		}
		for name, typ := range optional {
			in := reflect.TypeOf(inner).Implements(typ)
			out := reflect.TypeOf(wrapped).Implements(typ)
			if in != out {
				t.Errorf("%s: %T implements %s = %v, its wrapper = %v", w.name, inner, name, in, out)
			}
		}
	}
}

// TestWrappedRunMatchesBare runs every workload's cells bare and
// wrapped: the traced wrappers must not change a single Result field.
func TestWrappedRunMatchesBare(t *testing.T) {
	for _, w := range workloads {
		b, err := w.build()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i := 0; i < 2; i++ {
			seed := cellSeed(7, i)
			cfg, err := b.cell(seed)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := cluster.Run(cfg, b.factory())
			if err := checkResult(bare, err); err != nil {
				t.Fatalf("%s cell %d bare: %v", w.name, i, err)
			}
			log := newSpanLog(4, 1<<16)
			tr := newTracer(log)
			p, _ := wrapPolicy(b.factory(), tr)
			if cfg, err = b.cell(seed); err != nil {
				t.Fatal(err)
			}
			tr.beginCell(log.open(spanCell, -1, 0))
			wrapped, err := cluster.Run(cfg, p)
			tr.endCell(wrapped)
			if err := checkResult(wrapped, err); err != nil {
				t.Fatalf("%s cell %d wrapped: %v", w.name, i, err)
			}
			if !reflect.DeepEqual(bare, wrapped) {
				t.Errorf("%s cell %d: wrapped Result differs from bare", w.name, i)
			}
			if len(w.layers()) == 0 && tr.selects != wrapped.GeneratedJobs {
				t.Errorf("%s cell %d: %d Select calls traced for %d jobs", w.name, i, tr.selects, wrapped.GeneratedJobs)
			}
			if w.ctrl != "" && tr.queries == 0 {
				t.Errorf("%s cell %d: no StateView queries traced through the control plane", w.name, i)
			}
		}
	}
}

// TestSpanExportIsATree checks the exported spans: every call span hangs
// off a cell, every QueueLen off a sampled call of the same job, and
// each child lies inside its parent's interval.
func TestSpanExportIsATree(t *testing.T) {
	w, err := findWorkload("fleet500-jiq")
	if err != nil {
		t.Fatal(err)
	}
	w.horizon = 600
	b, err := w.build()
	if err != nil {
		t.Fatal(err)
	}
	log := newSpanLog(0, 1<<20)
	root := log.open(spanWorkload, -1, 0)
	start := time.Now()
	cellSpan := log.open(spanCell, root, 0)
	tr := newTracer(log)
	p, _ := wrapPolicy(b.factory(), tr)
	cfg, err := b.cell(1)
	if err != nil {
		t.Fatal(err)
	}
	tr.beginCell(cellSpan)
	res, err := cluster.Run(cfg, p)
	runNs := tr.endCell(res)
	if err := checkResult(res, err); err != nil {
		t.Fatal(err)
	}
	log.close(cellSpan, 1, tr.runStart, runNs)
	log.close(root, 1, start, time.Since(start).Nanoseconds())

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := log.write(path, map[string]float64{"cells": 1}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Span, Parent, Job int64
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	ev := doc.TraceEvents
	if len(ev) < 3 || int64(len(ev)) != int64(len(log.spans)) {
		t.Fatalf("%d events exported for %d spans", len(ev), len(log.spans))
	}
	wantParent := map[string]string{"cell": "workload", "Select": "cell", "Departed": "cell", "QueueLen": ""}
	var queueLens int
	for _, e := range ev[1:] {
		par := ev[e.Args.Parent]
		switch e.Name {
		case "QueueLen":
			queueLens++
			if par.Name != "Select" && par.Name != "Departed" {
				t.Fatalf("QueueLen span %d has parent %s", e.Args.Span, par.Name)
			}
			if par.Args.Job != e.Args.Job {
				t.Fatalf("QueueLen span %d has job %d, parent %d", e.Args.Span, e.Args.Job, par.Args.Job)
			}
		default:
			if par.Name != wantParent[e.Name] {
				t.Fatalf("%s span %d has parent %s", e.Name, e.Args.Span, par.Name)
			}
		}
		const slack = 0.002 // µs: the export rounds to nanoseconds
		if e.Ts+slack < par.Ts || e.Ts+e.Dur > par.Ts+par.Dur+slack {
			t.Fatalf("%s span %d [%g,%g] outside its parent [%g,%g]", e.Name, e.Args.Span, e.Ts, e.Ts+e.Dur, par.Ts, par.Ts+par.Dur)
		}
	}
	if queueLens == 0 {
		t.Fatal("no QueueLen spans exported")
	}
}
