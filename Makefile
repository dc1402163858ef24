# Verification targets. `make check` is the tier-1 gate (see ROADMAP.md):
# gofmt cleanliness, build + full tests, vet, explicit short-mode passes
# over the idle-skip determinism suite and the config-validation /
# cancellation-determinism suites (fast, and the properties the event-driven
# core rework and the run-session lifecycle depend on), and a race-detector
# pass over the packages that run goroutines (the relaxed epoch-parallel
# simulation loop and the experiment prewarm fan-out). The race pass uses
# -short because the detector slows simulation ~10x; the short subset still
# drives the full relaxed loop.
#
# `make golden` is the end-to-end output gate, kept out of `check` because
# it takes about 15 s on 2 cores: it builds gscalar-experiments, runs
# `-exp all -parallel 2` and diffs the output against experiments_output.txt
# minus its archived last line (EXIT=0), so every table and figure — Fig 1
# and the Section 6 ablation included — must reproduce byte-for-byte.

GO ?= go

.PHONY: check build test vet race skipdet valcancel relaxdet tracedet telemetry gendet perfsmoke serve fmt fmtcheck golden bench bench-parallel bench-serve profile profile-layers

check: fmtcheck build test vet skipdet valcancel relaxdet tracedet telemetry gendet perfsmoke serve race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

golden:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/gscalar-experiments" ./cmd/gscalar-experiments && \
	"$$tmp/gscalar-experiments" -exp all -parallel 2 > "$$tmp/out.txt" && \
	sed '$$d' experiments_output.txt | diff -u - "$$tmp/out.txt" && \
	echo "golden: experiments_output.txt reproduced byte-for-byte"

skipdet:
	$(GO) test -short -run 'TestIdleSkipDeterminism' .

valcancel:
	$(GO) test -run 'TestConfig|TestValidate|TestNormalize|TestNewSession|TestCancel|TestDeadline' . ./internal/gpu

# The -short root pass drives the relaxed epoch loop (accuracy-envelope
# subset, worker-count determinism, cancellation, telemetry bit-identity,
# trace replay), and internal/gpu's relaxed worker-invariance and
# startup-order tests all run in short mode, so the detector covers the
# epoch-parallel compute phase and its serial commit.
race:
	$(GO) test -race -short . ./internal/gpu ./internal/experiments

# Relaxed-loop differential oracle: the full 17-workload x 2-architecture
# accuracy envelope against the serial loop plus the (Workers, EpochCycles)
# determinism contract — root-level over real workloads, internal/gpu-level
# for worker-startup-order, functional-correctness and worker-resolution
# properties (including the rejection of Workers without an epoch).
relaxdet:
	$(GO) test -run 'TestRelaxed|TestResolveWorkers|TestWorkersRequireEpoch' . ./internal/gpu

# Trace capture/replay gate: the internal/trace codec unit tests (round-trip,
# truncation/version/CRC rejection, unknown-section skip) plus the root-level
# capture→replay determinism suite — every builtin workload captured and
# replayed byte-identically (Result + telemetry) against a live run on the
# same loop, serial and relaxed, content-hash key stability, and
# relaxed-loop capture rejection.
# Runs the full 17-workload x 2-architecture sweep (~20 s).
tracedet:
	$(GO) test ./internal/trace
	$(GO) test -run 'TestTrace|TestUnknownWorkloadSpec' .

# Telemetry gate: the registry/recorder unit tests, the exporter goldens
# (JSON/CSV/Chrome-trace shape), and the telemetry-on-vs-off bit-identity
# check. Kept as its own target so exporter-format changes are easy to
# re-verify in isolation.
telemetry:
	$(GO) vet ./internal/telemetry
	$(GO) test ./internal/telemetry
	$(GO) test -run 'Telemetry|Metrics|ResultJSON' .

# Serving gate: the result store (atomic writes, index rebuild, singleflight)
# and the sweep-server HTTP handlers (submit/dedup/cancel/drain-resume),
# under the race detector — the store is shared by the server's worker pool
# and the experiment prewarm fan-out, so these paths must be detector-clean.
serve:
	$(GO) vet ./internal/store ./internal/serve ./cmd/gscalar-serve
	$(GO) test ./internal/store ./internal/serve
	$(GO) test -race -short ./internal/store ./internal/serve

# Regenerates BENCH_serve.json: gscalar-serve sweep throughput over the HTTP
# API, cold (every point simulates) vs warm (every point a store hit).
bench-serve:
	$(GO) test -bench ServeThroughput -benchtime 1x -run '^$$' .

# Regenerates the simulator-performance snapshots: BENCH_core.json
# (event-driven core loop: serial-noskip baseline vs serial with idle skip)
# and BENCH_parallel.json (serial vs relaxed-loop speedup at two epoch
# lengths and several worker counts).
bench:
	$(GO) test -bench 'ParallelSpeedup|CoreSpeedup' -benchtime 1x -run '^$$' .

# Regenerates BENCH_parallel.json only.
bench-parallel:
	$(GO) test -bench ParallelSpeedup -benchtime 1x -run '^$$' .

# Synthetic-generator gate: the gen-package unit tests (dial parsing and
# typed errors, canonicalization round-trip, schema sanity, byte-identical
# builds), the workload-spec grammar tests (ParseSpec + the FuzzParseSpec
# seed corpus), and the root-level calibration suite — dial accuracy over
# the ≥20-vector grid on both architectures, serial/relaxed agreement on
# every executed-program counter, relaxed worker-count bit-identity, and the
# GOMAXPROCS determinism gate. The race pass is scaled down to the
# cheap unit layers; the root race coverage comes from the `race` target's
# -short pass.
gendet:
	$(GO) test ./internal/gen ./internal/workloads
	$(GO) test -run 'TestGen' .
	$(GO) test -race -short ./internal/gen ./internal/workloads

# Perf smoke: fail fast when a workload blows a generous wall-clock ceiling
# (order-of-magnitude simulator regressions, not benchmarking).
perfsmoke:
	$(GO) test -short -run 'TestPerfSmoke' .

# End-to-end CPU/heap profiling via internal/hostprof: run the LBM stressor
# under -cpuprofile/-memprofile and print the top-10 hot functions of each.
PROFILE_BENCH ?= LBM
profile:
	$(GO) build -o gscalar-sim.prof.bin ./cmd/gscalar-sim
	./gscalar-sim.prof.bin -workload $(PROFILE_BENCH) \
		-cpuprofile $(PROFILE_BENCH).cpu.pprof -memprofile $(PROFILE_BENCH).mem.pprof
	$(GO) tool pprof -top -nodecount=10 gscalar-sim.prof.bin $(PROFILE_BENCH).cpu.pprof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space \
		gscalar-sim.prof.bin $(PROFILE_BENCH).mem.pprof

# Per-layer host-time shares: a CPU profile of `gscalar-sim -all` (the 17
# builtins on G-Scalar, serial loop) folded by Go package. Each row is the
# package's self ("flat") time in ms and as a share of all samples.
# gscalar/internal/X prints as X, the root package as gscalar, the CLI as
# main, and assembly symbols without a package (gcWriteBarrier) count as
# runtime. One run holds about 250 samples, so a share moves by a point or
# two between runs.
profile-layers:
	$(GO) build -o gscalar-sim.prof.bin ./cmd/gscalar-sim
	./gscalar-sim.prof.bin -all -arch gscalar -cpuprofile layers.cpu.pprof > /dev/null
	@$(GO) tool pprof -top -unit=ms -nodefraction=0 -nodecount=0 gscalar-sim.prof.bin layers.cpu.pprof 2>/dev/null | \
	awk '$$2 ~ /%$$/ && NF >= 6 { \
		n = split($$6, p, "/"); d = index(p[n], "."); \
		pkg = d ? substr($$6, 1, length($$6) - length(p[n]) + d - 1) : "runtime"; \
		sub(/^gscalar\/internal\//, "", pkg); sub(/ms$$/, "", $$1); sub(/%$$/, "", $$2); \
		ms[pkg] += $$1; share[pkg] += $$2 } \
	END { for (k in share) if (share[k] > 0) printf "%-22s %7.0f ms %6.2f%%\n", k, ms[k], share[k] }' | sort -k4 -rn
