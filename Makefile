GO ?= go

# Committed benchmark baseline for the regression gate (see cmd/benchreg).
# Re-record with `make bench-baseline` after an intentional perf change and
# commit the new file (renamed to the recording date).
BENCH_BASELINE ?= BENCH_2026-08-06.json
# Tolerated relative ns/op regression on hot-path benchmarks. allocs/op is
# always exact. CI overrides this with generous headroom because its
# hardware differs from the baseline machine; locally 10% is realistic.
BENCH_THRESHOLD ?= 0.10

.PHONY: all build test check race stress vet fmt clean probe-smoke trace-smoke netfault-smoke shard-smoke ctrl-smoke sweep-smoke perf-smoke chaos-smoke benchcheck bench-baseline loc allocs

all: build

build:
	$(GO) build ./...

# Fast full-suite run (tier-1 gate).
test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# check is the pre-commit gate: vet, build, then the whole suite under the
# race detector with -short so the internal/sim stress tests run at reduced
# iteration counts (see stressN in internal/sim/stress_test.go).
# -shuffle=on randomizes test and subtest order to catch order coupling;
# a failure prints the shuffle seed for replay (-shuffle=SEED).
check: vet build
	$(GO) test -race -short -shuffle=on ./...

# allocs runs only the exact allocation gates: the engine and arena
# zero-allocation tests, probe.Emit, and cluster.Run's per-job floor
# with every layer on. CI runs it as its own step so an allocation
# regression fails on its own line.
allocs:
	$(GO) test -count=1 -run 'ZeroAlloc|AllocFloor' ./internal/...

# race runs the whole suite under the race detector with -short (stress
# tests at reduced iteration counts). The adaptive re-planning loop,
# drift modulation and replication scheduler all share engine state, so
# CI runs this as its own job.
race:
	$(GO) test -race -short ./...

# stress runs the internal/sim and internal/cluster stress tests at full
# iteration counts under the race detector (the cluster side includes the
# long netfault stress run; see TestNetfaultStress).
stress:
	$(GO) test -race -run 'Stress|Conservation|Randomized|Cancellations|Monotone|Quick' ./internal/sim/ ./internal/cluster/

# probe-smoke runs a short fully instrumented simulation (metrics,
# cadence samples, lifecycle events, trace, manifest) and validates the
# artifacts with probecheck. CI runs this and uploads probe-out/.
probe-smoke:
	mkdir -p probe-out
	$(GO) run ./cmd/heterosim -speeds 1,1,2,10 -rho 0.7 -policy ORR \
		-duration 2e4 -reps 1 -probe -sample-dt 500 \
		-events probe-out/events.jsonl -manifest probe-out/manifest.json \
		-trace probe-out/trace.csv > probe-out/report.txt
	$(GO) run ./cmd/probecheck -manifest probe-out/manifest.json \
		-events probe-out/events.jsonl -require-terminal

# trace-smoke runs a short span-instrumented simulation (spans, events,
# trace CSV, manifest) under network faults — the nastiest assembly path:
# resubmits, duplicate deliveries, dispatcher crashes — and validates the
# span export, manifest and event stream with probecheck. CI runs this
# and uploads trace-out/.
trace-smoke:
	mkdir -p trace-out
	$(GO) run ./cmd/heterosim -speeds 1,1,2,10 -rho 0.7 -policy ORR \
		-duration 2e4 -reps 1 -probe \
		-netfault loss:0.05,dup:0.05,lat:2,crash:8000:100,down:buffer \
		-ackto 30 \
		-spans trace-out/spans.json -events trace-out/events.jsonl \
		-manifest trace-out/manifest.json -trace trace-out/trace.csv \
		> trace-out/report.txt
	$(GO) run ./cmd/probecheck -manifest trace-out/manifest.json \
		-events trace-out/events.jsonl -require-terminal \
		-spans trace-out/spans.json

# netfault-smoke runs a short simulation over an unreliable control plane
# (loss, duplication, latency, dispatcher crashes with checkpoint
# recovery) with full instrumentation and validates the event stream with
# probecheck: exactly-once terminals must hold despite resubmission and
# duplicate delivery.
netfault-smoke:
	mkdir -p netfault-out
	$(GO) run ./cmd/heterosim -speeds 1,1,2,10 -rho 0.7 -policy ORR \
		-duration 2e4 -reps 1 -probe \
		-netfault loss:0.05,dup:0.05,lat:2,crash:8000:100,down:buffer \
		-ackto 30 -dstate ckpt:2500 \
		-events netfault-out/events.jsonl -manifest netfault-out/manifest.json \
		> netfault-out/report.txt
	$(GO) run ./cmd/probecheck -manifest netfault-out/manifest.json \
		-events netfault-out/events.jsonl -require-terminal

# shard-smoke runs a short simulation of a scaled system (the base speed
# vector tiled to 200 computers) under K=4 hash-routed dispatcher
# replicas with the scalable JSQ(2) policy, fully instrumented, and
# validates the artifacts with probecheck: sharding must not break
# exactly-once terminals or the manifest contract.
shard-smoke:
	mkdir -p shard-out
	$(GO) run ./cmd/heterosim -speeds 1,1,2,10 -scale 200 -rho 0.7 \
		-policy 'jsq(2)' -dispatchers 4:hash -duration 2e3 -reps 1 -probe \
		-events shard-out/events.jsonl -manifest shard-out/manifest.json \
		> shard-out/report.txt
	$(GO) run ./cmd/probecheck -manifest shard-out/manifest.json \
		-events shard-out/events.jsonl -require-terminal

# ctrl-smoke runs a short simulation with the JIQ policy's idle-token
# reports carried over lossy, slow control links (leases and a query
# timeout active) under K=4 hash-routed dispatcher replicas, fully
# instrumented, and validates the artifacts with probecheck: control-
# plane faults must not break exactly-once terminals or the manifest
# contract.
ctrl-smoke:
	mkdir -p ctrl-out
	$(GO) run ./cmd/heterosim -speeds 1,1,2,10 -rho 0.7 \
		-policy jiq -dispatchers 4:hash \
		-ctrl 'loss:0.2,lat:5,lease:200,qto:50' -duration 2e3 -reps 1 -probe \
		-events ctrl-out/events.jsonl -manifest ctrl-out/manifest.json \
		> ctrl-out/report.txt
	$(GO) run ./cmd/probecheck -manifest ctrl-out/manifest.json \
		-events ctrl-out/events.jsonl -require-terminal

# sweep-smoke runs a short two-policy utilization sweep with every
# layer family the sweep shares with heterosim turned on (compute
# faults, overload protection, network faults, control-plane faults),
# instrumented with one event stream per cell and a manifest, and
# validates the manifest and one cell's stream with probecheck.
sweep-smoke:
	mkdir -p sweep-out/events
	$(GO) run ./cmd/sweep -speeds 1,1,2,10 -policies 'ORR,jsq(2)' \
		-from 0.5 -to 0.7 -step 0.2 -duration 1e4 -reps 2 \
		-mtbf 2e4 -mttr 500 -qcap 50 -timeout 300 -retry 1 \
		-netfault loss:0.05,lat:2 -ackto 30 -ctrl loss:0.1,lat:2,qto:30 -probe \
		-events sweep-out/events -manifest sweep-out/manifest.json \
		> sweep-out/report.txt
	$(GO) run ./cmd/probecheck -manifest sweep-out/manifest.json \
		-events sweep-out/events/ORR-rho0.5.jsonl -require-terminal

# perf-smoke runs the benchmark module's own tests, then every
# benchmark workload once for a few seconds, and fails unless each JSON
# result line reports "correct":true: every cell's job ledger balanced
# and the fixed-seed analytic oracle held (see perfbench/README.md).
perf-smoke:
	cd perfbench && $(GO) test ./...
	@for w in paper-base fleet500-jiq paper-faulted; do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 5 --trace 0) || exit 1; \
		echo "$$out"; \
		echo "$$out" | grep -q '^{' || { echo "perf-smoke: $$w printed no result line" >&2; exit 1; }; \
		if echo "$$out" | grep '^{' | grep -vq '"correct":true'; then \
			echo "perf-smoke: $$w did not report correct:true" >&2; exit 1; \
		fi; \
	done

# chaos-smoke samples a bounded budget of composed fault scenarios
# (faults x overload x drift x netfault) and checks every run against the
# invariant registry (see internal/chaos and `go run ./cmd/chaos list`).
# Any violating scenario is shrunk to a minimal reproducer spec written
# under chaos-out/; CI uploads the directory so a red run ships its own
# replayable repro (`go run ./cmd/chaos replay -spec chaos-out/repro-K.chaos`).
chaos-smoke:
	mkdir -p chaos-out
	$(GO) run ./cmd/chaos search \
		-chaos seeds:120,intensity:1,dur:20000,seed:7 \
		-out chaos-out

# benchcheck is the benchmark-regression gate: re-measure the hot-path
# suite and compare against the committed baseline. Fails on >threshold
# ns/op or any allocs/op regression on hot-path benchmarks.
benchcheck:
	$(GO) run ./cmd/benchreg check -baseline $(BENCH_BASELINE) \
		-threshold $(BENCH_THRESHOLD) -save bench-current.json

# bench-baseline re-records the committed baseline on this machine.
bench-baseline:
	$(GO) run ./cmd/benchreg baseline -out $(BENCH_BASELINE)

# loc prints the non-test Go lines of every package in the module and
# their total: information for reviewing deletions, not a gate.
loc:
	@$(GO) list -f '{{.Dir}}|{{.ImportPath}}|{{join .GoFiles " "}}' ./... | \
	while IFS='|' read -r dir pkg files; do \
		[ -n "$$files" ] || continue; \
		printf '%7d  %s\n' "$$(cd "$$dir" && cat $$files | wc -l)" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%7d  total\n", total }'

fmt:
	gofmt -w $$($(GO) list -f '{{.Dir}}' ./...)

clean:
	$(GO) clean ./...
