# nucasim build/verify entry points. `make ci` is what the GitHub
# workflow runs: a gofmt check, vet, build, race-enabled tests, a smoke
# run that checks the telemetry artifacts actually parse, the replay
# self-verify cross-check, and a diff against the pinned golden baseline.

GO ?= go

.PHONY: all build vet test race bench bench-smoke bench-serve bench-sweep smoke span-smoke serve-smoke sweep-smoke crash-smoke replay-verify golden golden-check fault-coverage resume-smoke fuzz-smoke fmt-check staticcheck govulncheck ci clean

all: build

# BenchmarkGeneratorNext's sub-benchmarks: the apps of the benchmark's
# warmup (ammp, art, mcf, swim) and table1 (gzip, mcf, ammp, wupwise)
# mixes.
GENERATOR_BENCHES = BenchmarkGeneratorNext/ammp,BenchmarkGeneratorNext/art,BenchmarkGeneratorNext/mcf,BenchmarkGeneratorNext/swim,BenchmarkGeneratorNext/gzip,BenchmarkGeneratorNext/wupwise

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file must be gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark the core engine paths (the adaptive access path with and
# without telemetry, the end-to-end Table 1 run, the wall-clock span
# hot path enabled/disabled, functional warmup at one and two CPUs, the
# timed loop over three mixes, a data load through a deferring port
# (the L1/L2/TLB path of functional warmup), and the workload generator
# over the apps of the benchmark's warmup and table1 mixes). The text
# output is benchstat-compatible; benchjson folds the same stream into
# the machine-readable BENCH_core.json benchmark record, asserting the
# access, span, port and generator paths stay allocation-free and the
# telemetry tax stays <= 2x.
bench: build
	$(GO) test -run '^$$' -bench 'BenchmarkWarmFunctional$$' -benchmem -cpu 1,2 \
		-count=5 ./internal/sim/ | tee /tmp/nucasim-bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTimedCycles$$' -benchmem \
		-count=5 ./internal/sim/ | tee -a /tmp/nucasim-bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkAdaptiveAccess|BenchmarkTable1$$|BenchmarkSpanStartEnd' \
		-benchmem -count=5 . | tee -a /tmp/nucasim-bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkPortDeferred$$' -benchmem \
		-count=5 ./internal/hierarchy/ | tee -a /tmp/nucasim-bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkGeneratorNext$$' -benchmem \
		-count=5 ./internal/workload/ | tee -a /tmp/nucasim-bench.txt
	$(GO) run ./internal/tools/benchjson -in /tmp/nucasim-bench.txt -out BENCH_core.json \
		-require BenchmarkWarmFunctional/cpu=1,BenchmarkWarmFunctional/cpu=2,BenchmarkTimedCycles/table1,BenchmarkTimedCycles/memory,BenchmarkTimedCycles/compute,BenchmarkAdaptiveAccess,BenchmarkAdaptiveAccessTelemetry,BenchmarkTable1,BenchmarkSpanStartEnd,BenchmarkSpanStartEndDisabled,BenchmarkPortDeferred,$(GENERATOR_BENCHES) \
		-assert-zero-allocs BenchmarkTimedCycles,BenchmarkAdaptiveAccess,BenchmarkAdaptiveAccessTelemetry,BenchmarkSpanStartEnd,BenchmarkSpanStartEndDisabled,BenchmarkPortDeferred,BenchmarkGeneratorNext \
		-max-ratio BenchmarkAdaptiveAccessTelemetry/BenchmarkAdaptiveAccess=2.0
	@echo "bench record written to BENCH_core.json"

# One-shot benchmark smoke for CI: both adaptive access paths must stay
# allocation-free (the flat-arena engine's guarantee), and the fully
# instrumented path must cost no more than 2x the bare one. Each run of
# that pair lasts about 0.1 s, long enough for the mean over -count to
# settle. The two hottest per-cycle layers, a core step and a
# dependency-distance draw, must stay allocation-free too, and so must
# the timed loop over each mix, a data access through a deferring port
# (functional warmup's per-core path) and one generated instruction of
# each app in the benchmark's warmup and table1 mixes. A forked sweep
# must allocate at most 0.27x the bytes of the same points run cold:
# B/op does not depend on host speed, so two iterations suffice, and the
# gate fails if forks go back to building a machine each, or if a group
# whose windows all chain goes back to capturing and restoring a
# checkpoint.
bench-smoke: build
	$(GO) test -run '^$$' -bench 'BenchmarkAdaptiveAccess(Telemetry)?$$' -benchmem \
		-benchtime=5000000x -count=3 . | tee /tmp/nucasim-bench-smoke.txt
	$(GO) run ./internal/tools/benchjson -in /tmp/nucasim-bench-smoke.txt \
		-out /tmp/nucasim-bench-smoke.json \
		-require BenchmarkAdaptiveAccess,BenchmarkAdaptiveAccessTelemetry \
		-assert-zero-allocs BenchmarkAdaptiveAccess,BenchmarkAdaptiveAccessTelemetry \
		-max-ratio BenchmarkAdaptiveAccessTelemetry/BenchmarkAdaptiveAccess=2.0
	$(GO) test -run '^$$' -bench 'BenchmarkCoreStep$$' -benchmem \
		-benchtime=200000x -count=3 ./internal/cpu/ | tee /tmp/nucasim-bench-smoke-layers.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTimedCycles$$' -benchmem \
		-benchtime=3x -count=3 ./internal/sim/ | tee -a /tmp/nucasim-bench-smoke-layers.txt
	$(GO) test -run '^$$' -bench 'BenchmarkGeometricSource$$' -benchmem \
		-benchtime=2000000x -count=3 ./internal/rng/ | tee -a /tmp/nucasim-bench-smoke-layers.txt
	$(GO) test -run '^$$' -bench 'BenchmarkPortDeferred$$' -benchmem \
		-benchtime=200000x -count=3 ./internal/hierarchy/ | tee -a /tmp/nucasim-bench-smoke-layers.txt
	$(GO) test -run '^$$' -bench 'BenchmarkGeneratorNext$$' -benchmem \
		-benchtime=2000000x -count=3 ./internal/workload/ | tee -a /tmp/nucasim-bench-smoke-layers.txt
	$(GO) run ./internal/tools/benchjson -in /tmp/nucasim-bench-smoke-layers.txt \
		-out /tmp/nucasim-bench-smoke-layers.json \
		-require BenchmarkCoreStep,BenchmarkTimedCycles/table1,BenchmarkTimedCycles/memory,BenchmarkTimedCycles/compute,BenchmarkGeometricSource,BenchmarkPortDeferred,$(GENERATOR_BENCHES) \
		-assert-zero-allocs BenchmarkCoreStep,BenchmarkTimedCycles,BenchmarkGeometricSource,BenchmarkPortDeferred,BenchmarkGeneratorNext
	$(GO) test -run '^$$' -bench 'BenchmarkSweep(Forked|Cold)$$' -benchmem \
		-benchtime=2x -count=1 ./internal/sweep/ | tee /tmp/nucasim-bench-smoke-sweep.txt
	$(GO) run ./internal/tools/benchjson -in /tmp/nucasim-bench-smoke-sweep.txt \
		-out /tmp/nucasim-bench-smoke-sweep.json -require BenchmarkSweepForked,BenchmarkSweepCold \
		-max-ratio BenchmarkSweepForked/BenchmarkSweepCold:bytes=0.27
	@echo bench-smoke ok

# Smoke-test the observability pipeline end to end: a short adaptive run
# must produce an epoch CSV and a JSONL trace that parse, with one CSV
# row per evaluation.
smoke: build
	$(GO) run ./cmd/nucasim -scheme adaptive -cycles 100000 \
		-metrics-out /tmp/nucasim-smoke.csv -trace-out /tmp/nucasim-smoke.jsonl \
		> /tmp/nucasim-smoke.txt
	$(GO) run ./internal/tools/artifactcheck \
		-metrics /tmp/nucasim-smoke.csv -trace /tmp/nucasim-smoke.jsonl
	@echo smoke ok

# Smoke-test the wall-clock span pipeline: a short adaptive run with
# -span-out must emit a schema-valid Perfetto-loadable trace containing
# every expected phase span, and the spans-disabled hot path (what every
# untraced run pays at each phase boundary) must stay allocation-free.
span-smoke: build
	$(GO) run ./cmd/nucasim -scheme adaptive -cycles 100000 \
		-metrics-out /tmp/nucasim-span-smoke.csv -trace-out /tmp/nucasim-span-smoke.jsonl \
		-span-out /tmp/nucasim-spans.json > /tmp/nucasim-span-smoke.txt
	$(GO) run ./internal/tools/artifactcheck -spans /tmp/nucasim-spans.json \
		-spans-require nucasim,sim.run,sim.warmup_functional,sim.warmup_segment,sim.warmup_cycles,sim.warmup_chunk,sim.measure,sim.measure_chunk,adaptive.repartition,artifact.epoch_csv,artifact.trace_commit
	$(GO) run ./cmd/experiments -mixes 1 -warmup-instrs 20000 -warmup-cycles 2000 -cycles 10000 \
		-span-out /tmp/nucasim-experiments-spans.json fig6 > /tmp/nucasim-experiments-span-smoke.txt
	$(GO) run ./internal/tools/artifactcheck -spans /tmp/nucasim-experiments-spans.json \
		-spans-require experiments,experiment.fig6,sim.run
	$(GO) test -run '^$$' -bench 'BenchmarkSpanStartEnd' -benchmem \
		-benchtime=200000x -count=3 . | tee /tmp/nucasim-span-bench.txt
	$(GO) run ./internal/tools/benchjson -in /tmp/nucasim-span-bench.txt \
		-out /tmp/nucasim-span-bench.json \
		-require BenchmarkSpanStartEnd,BenchmarkSpanStartEndDisabled \
		-assert-zero-allocs BenchmarkSpanStartEnd,BenchmarkSpanStartEndDisabled
	@echo span-smoke ok

# Cross-check trace-reconstructed cache state against the live cache at
# every repartition epoch of a pinned mixed-app run (see cmd/nucadbg and
# internal/replay). Catches tracer/replayer/simulator divergence.
replay-verify: build
	$(GO) run ./internal/tools/artifactcheck -selfverify

# Regenerate the pinned-seed regression baseline. Run this (and commit
# the result) only when a behaviour change is intended.
golden: build
	$(GO) run ./internal/tools/golden

# Regenerate the baseline into a scratch dir and diff against the
# committed one: any difference is an unintended behaviour change.
golden-check: build
	rm -rf /tmp/nucasim-golden /tmp/nucasim-sweepsmoke
	rm -f /tmp/nucasim-bench-sweep.txt
	rm -f /tmp/nucasim-bench-smoke-layers.txt /tmp/nucasim-bench-smoke-layers.json
	$(GO) run ./internal/tools/golden -out /tmp/nucasim-golden
	diff -u testdata/golden/epoch.csv /tmp/nucasim-golden/epoch.csv
	diff -u testdata/golden/limits.json /tmp/nucasim-golden/limits.json
	diff -u testdata/golden/schemes.json /tmp/nucasim-golden/schemes.json
	diff -u testdata/golden/figures.json /tmp/nucasim-golden/figures.json
	@echo golden ok

# Detector coverage: corrupt live cache state every way core/faults.go
# knows and require the invariant checker / replay verifier to object.
# The nucasim run then sweeps the full I1–I9 catalog (including I9's
# incremental-index-vs-recount cross-check) at every epoch of a live run.
fault-coverage: build
	$(GO) test -count=1 -v ./internal/faultinject/
	$(GO) run ./cmd/nucasim -scheme adaptive -cycles 200000 -check-invariants \
		> /tmp/nucasim-invariants.txt
	@echo "invariant sweep ok (I1-I9 under -check-invariants)"

# Interrupt-and-resume smoke: stop a pinned run mid-measurement via its
# checkpoint, resume it, and require bit-identical results.
resume-smoke: build
	$(GO) run ./internal/tools/artifactcheck -resumesmoke

# End-to-end smoke of the HTTP service: build the real nucaserve binary,
# run a job through it, SIGTERM it, restart it on the same state dir and
# require the resubmission to be a byte-identical cache hit.
serve-smoke: build
	$(GO) build -o /tmp/nucaserve ./cmd/nucaserve
	$(GO) run ./internal/tools/servesmoke -bin /tmp/nucaserve

# End-to-end smoke of the sweep orchestration service: run an 8-point
# shared-warmup sweep through the real nucaserve binary, assert from
# the /metrics counters that the warmup ran exactly once and all 8
# points forked its checkpoint, byte-compare every forked result
# against a cold in-process run, then fsck the state directory's job
# and sweep entries against their integrity manifests.
sweep-smoke: build
	$(GO) build -o /tmp/nucaserve ./cmd/nucaserve
	rm -rf /tmp/nucasim-sweepsmoke
	$(GO) run ./internal/tools/sweepsmoke -bin /tmp/nucaserve -state /tmp/nucasim-sweepsmoke
	$(GO) run ./internal/tools/artifactcheck -servestore /tmp/nucasim-sweepsmoke
	@echo sweep-smoke ok

# Crash-consistency smoke: SIGKILL the real server binary mid-job (no
# drain, no signal handler — what the OOM killer does), restart it over
# the same state directory, and require the job to resume from its
# periodic checkpoint with a byte-identical result and a state dir that
# passes integrity verification.
crash-smoke: build
	$(GO) build -o /tmp/nucaserve ./cmd/nucaserve
	$(GO) run ./internal/tools/crashsmoke -bin /tmp/nucaserve

# Benchmark the service's submit path on a warmed cache (decode,
# canonicalize, hash, dedup, respond) and the encoding of a fresh job's
# result.json (a telemetry-on 4-core adaptive result, about 0.6 MB)
# into BENCH_serve.json. The result encoder must take at most 0.3x the
# time and 0.5x the bytes of the plain encoding/json rendering it
# replaced (BenchmarkEncodeResultReference), or the gate fails.
bench-serve: build
	$(GO) test -run '^$$' -bench 'BenchmarkEncodeResult(Reference)?$$' -benchmem \
		-count=5 ./internal/sim/ | tee /tmp/nucasim-bench-serve.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServeSubmit$$' -benchmem \
		-count=5 ./internal/serve/ | tee -a /tmp/nucasim-bench-serve.txt
	$(GO) run ./internal/tools/benchjson -in /tmp/nucasim-bench-serve.txt \
		-out BENCH_serve.json -require BenchmarkServeSubmit,BenchmarkEncodeResult,BenchmarkEncodeResultReference \
		-max-ratio BenchmarkEncodeResult/BenchmarkEncodeResultReference=0.3,BenchmarkEncodeResult/BenchmarkEncodeResultReference:bytes=0.5
	@echo "bench record written to BENCH_serve.json"

# Benchmark warmup forking against cold per-point runs on the same
# 8-point sweep into BENCH_sweep.json: forking must keep a real
# throughput win (forked <= 0.6x cold ns/op), allocate no more often
# than cold runs do (forked <= 1x cold allocs/op), and allocate at most
# 0.27x their bytes (forked <= 0.27x cold B/op: the forks measure on the
# warmup's machine instead of building their own, and the chain captures
# and restores no checkpoint), or the gate fails.
bench-sweep: build
	$(GO) test -run '^$$' -bench 'BenchmarkSweep(Forked|Cold)$$' -benchmem \
		-count=5 ./internal/sweep/ | tee /tmp/nucasim-bench-sweep.txt
	$(GO) run ./internal/tools/benchjson -in /tmp/nucasim-bench-sweep.txt \
		-out BENCH_sweep.json -require BenchmarkSweepForked,BenchmarkSweepCold \
		-max-ratio BenchmarkSweepForked/BenchmarkSweepCold=0.3,BenchmarkSweepForked/BenchmarkSweepCold:allocs=1.0,BenchmarkSweepForked/BenchmarkSweepCold:bytes=0.27
	@echo "bench record written to BENCH_sweep.json"

# Short fuzz pass over the external-input parsers (JSONL trace, binary
# address trace, canonical job spec, checkpoint bytes through Restore),
# the result encoder against encoding/json, the sweep spec expander, and
# the flat cache and linked-slot TLB against their reference models. Seed corpora live under */testdata/fuzz/ and in
# the fuzz targets. A checkpoint seed is about 190 KB and nearly every
# mutation reaches a new refusal, so FuzzRestoreCheckpoint skips input
# minimization, which would spend the whole pass on one input.
fuzz-smoke: build
	$(GO) test -run=^$$ -fuzz=FuzzReadEvents -fuzztime=10s ./internal/replay/
	$(GO) test -run=^$$ -fuzz=FuzzReader -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzRoundTrip -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzParseCanonicalSpec -fuzztime=10s ./internal/sim/
	$(GO) test -run=^$$ -fuzz=FuzzRestoreCheckpoint -fuzztime=10s -fuzzminimizetime=0s ./internal/sim/
	$(GO) test -run=^$$ -fuzz=FuzzEncodeResult -fuzztime=10s ./internal/sim/
	$(GO) test -run=^$$ -fuzz=FuzzExpand -fuzztime=10s ./internal/sweep/
	$(GO) test -run=^$$ -fuzz=FuzzCacheMatchesReference -fuzztime=10s ./internal/cache/
	$(GO) test -run=^$$ -fuzz=FuzzTLBMatchesReference -fuzztime=10s ./internal/tlb/

# Static analysis and vulnerability scanning. Both tools are optional at
# the Makefile level — environments without them (hermetic containers)
# skip with a notice — while the CI workflow installs them explicitly,
# so the gate is always enforced where it matters.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI installs it)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI installs it)"; \
	fi

ci: fmt-check vet staticcheck build race smoke span-smoke serve-smoke sweep-smoke crash-smoke replay-verify golden-check fault-coverage bench-smoke resume-smoke fuzz-smoke govulncheck

clean:
	rm -f /tmp/nucasim-smoke.csv /tmp/nucasim-smoke.jsonl /tmp/nucasim-smoke.txt
	rm -f /tmp/nucasim-spans.json /tmp/nucasim-span-smoke.txt /tmp/nucasim-span-smoke.csv
	rm -f /tmp/nucasim-span-smoke.jsonl /tmp/nucasim-span-bench.txt /tmp/nucasim-span-bench.json
	rm -f /tmp/nucasim-experiments-spans.json /tmp/nucasim-experiments-span-smoke.txt
	rm -rf /tmp/nucasim-golden /tmp/nucasim-sweepsmoke
	rm -f /tmp/nucasim-bench.txt /tmp/nucasim-bench-serve.txt /tmp/nucasim-bench-sweep.txt
	rm -f /tmp/nucasim-bench-smoke.txt /tmp/nucasim-bench-smoke.json
	rm -f /tmp/nucasim-bench-smoke-layers.txt /tmp/nucasim-bench-smoke-layers.json
	rm -f /tmp/nucasim-bench-smoke-sweep.txt /tmp/nucasim-bench-smoke-sweep.json
	rm -f /tmp/nucasim-invariants.txt /tmp/nucaserve
