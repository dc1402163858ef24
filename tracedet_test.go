package gscalar_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gscalar"
	"gscalar/internal/trace"
)

// captureWorkload runs abbr under arch with trace capture enabled and
// returns the capture run's Result plus the trace path.
func captureWorkload(t *testing.T, arch gscalar.Arch, abbr string, scale int) (gscalar.Result, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), abbr+".gstr")
	s, err := gscalar.NewSession(gscalar.DefaultConfig(), arch)
	if err != nil {
		t.Fatal(err)
	}
	s.Capture.Path = path
	res, err := s.RunWorkload(context.Background(), abbr, scale)
	if err != nil {
		t.Fatalf("capture %s on %s: %v", abbr, arch, err)
	}
	return res, path
}

// resultJSON marshals a Result with execution metadata stripped, so runs
// from different chip loops compare on what they simulated.
func resultJSON(t *testing.T, r gscalar.Result) string {
	t.Helper()
	b, err := json.Marshal(stripExecMeta(r))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricsJSON renders a telemetry blob with the identity fields that
// legitimately differ between a live and a replayed run blanked: the
// workload label (abbr vs trace:<path>) and the execution metadata. All
// counters and the full time series must still match byte for byte.
func metricsJSON(t *testing.T, m *gscalar.Metrics) string {
	t.Helper()
	if m == nil {
		t.Fatal("metrics: telemetry was enabled but Metrics() is nil")
	}
	mm := *m
	mm.Workload = ""
	mm.ExecMode = ""
	mm.Workers = 0
	b, err := mm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runSpec simulates one workload spec with telemetry on, on the serial loop
// (workers == 0) or on the relaxed loop with that many workers, returning
// the Result and the telemetry blob.
func runSpec(t *testing.T, arch gscalar.Arch, spec string, scale, workers int) (gscalar.Result, *gscalar.Metrics) {
	t.Helper()
	cfg := gscalar.DefaultConfig()
	cfg.Relaxed = workers != 0
	cfg.Workers = workers
	s, err := gscalar.NewSession(cfg, arch)
	if err != nil {
		t.Fatal(err)
	}
	s.Telemetry = gscalar.TelemetryOptions{Enabled: true}
	res, err := s.RunWorkload(context.Background(), spec, scale)
	if err != nil {
		t.Fatalf("%s on %s (workers=%d): %v", spec, arch, workers, err)
	}
	return res, s.Metrics()
}

// TestTraceCaptureReplay is the tracedet gate: every builtin workload is
// captured once, then replayed from the trace file — under both
// architectures and under both the serial and the relaxed chip loop — and
// each replay must be byte-identical (Result and telemetry, execution
// metadata stripped) to the live run on the same loop. It also asserts the
// capture hook itself perturbs nothing: the capturing run's Result equals
// the plain live run's.
func TestTraceCaptureReplay(t *testing.T) {
	workloadSet := gscalar.Workloads()
	archs := []gscalar.Arch{gscalar.Baseline, gscalar.GScalar}
	if testing.Short() {
		workloadSet = []string{"HS", "MQ", "SAD"}
		archs = archs[1:]
	}
	for _, abbr := range workloadSet {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			capRes, path := captureWorkload(t, gscalar.GScalar, abbr, 1)
			spec := "trace:" + path
			for _, arch := range archs {
				liveRes, liveMet := runSpec(t, arch, abbr, 1, 0)
				if arch == gscalar.GScalar {
					if got, want := resultJSON(t, capRes), resultJSON(t, liveRes); got != want {
						t.Errorf("%s/%s: capturing run differs from plain live run:\n%s\nvs\n%s", abbr, arch, got, want)
					}
				}

				repRes, repMet := runSpec(t, arch, spec, 1, 0)
				if got, want := resultJSON(t, repRes), resultJSON(t, liveRes); got != want {
					t.Errorf("%s/%s: serial replay differs from live:\n%s\nvs\n%s", abbr, arch, got, want)
				}
				if got, want := metricsJSON(t, repMet), metricsJSON(t, liveMet); got != want {
					t.Errorf("%s/%s: serial replay telemetry differs from live", abbr, arch)
				}

				// The relaxed loop compares like-for-like: it perturbs
				// timing, so the oracle for a relaxed replay is a relaxed
				// live run, and only the executed program must match serial.
				liveRelaxed, liveRelaxedMet := runSpec(t, arch, abbr, 1, 4)
				relaxedRes, relaxedMet := runSpec(t, arch, spec, 1, 4)
				if relaxedRes.ExecMode != "relaxed" {
					t.Errorf("%s/%s: relaxed replay ran %q, want relaxed", abbr, arch, relaxedRes.ExecMode)
				}
				if got, want := resultJSON(t, relaxedRes), resultJSON(t, liveRelaxed); got != want {
					t.Errorf("%s/%s: relaxed replay differs from relaxed live:\n%s\nvs\n%s", abbr, arch, got, want)
				}
				if got, want := metricsJSON(t, relaxedMet), metricsJSON(t, liveRelaxedMet); got != want {
					t.Errorf("%s/%s: relaxed replay telemetry differs from relaxed live", abbr, arch)
				}
				if relaxedRes.WarpInsts != liveRes.WarpInsts {
					t.Errorf("%s/%s: relaxed replay retired %d warp insts, serial live %d",
						abbr, arch, relaxedRes.WarpInsts, liveRes.WarpInsts)
				}
			}
		})
	}
}

// TestTraceContentIntegrity checks the trace file itself: it decodes, its
// static sections materialise, the record stream decodes fully, and the
// recorded instruction count equals the capture run's retired-warp-
// instruction total.
func TestTraceContentIntegrity(t *testing.T) {
	capRes, path := captureWorkload(t, gscalar.GScalar, "HS", 1)
	tr, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.Workload != "HS" || tr.Meta.WarpSize != gscalar.DefaultConfig().WarpSize {
		t.Errorf("meta = %+v", tr.Meta)
	}
	if tr.Meta.ConfigHash != gscalar.DefaultConfig().Hash() {
		t.Errorf("meta config hash %q, want the capturing config's", tr.Meta.ConfigHash)
	}
	if len(tr.Hash) != 64 {
		t.Errorf("content hash %q, want sha256 hex", tr.Hash)
	}
	if _, err := tr.Program(); err != nil {
		t.Fatalf("program: %v", err)
	}
	recs, err := tr.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	if uint64(len(recs)) != capRes.WarpInsts {
		t.Errorf("recorded %d warp instructions, capture run retired %d", len(recs), capRes.WarpInsts)
	}
	sawMem, sawDst := false, false
	for _, r := range recs {
		if r.IsMem && len(r.Addrs) > 0 {
			sawMem = true
		}
		if r.DstReg >= 0 {
			sawDst = true
		}
	}
	if !sawMem || !sawDst {
		t.Errorf("record stream lacks expected variety: sawMem=%v sawDst=%v", sawMem, sawDst)
	}
}

// TestTraceCaptureRejectsParallelLoops pins the capture precondition: the
// recorded order is only deterministic under the serial loop, so both
// spellings of the relaxed loop are rejected.
func TestTraceCaptureRejectsParallelLoops(t *testing.T) {
	for _, mod := range []func(*gscalar.Config){
		func(c *gscalar.Config) { c.Relaxed, c.Workers = true, 4 },
		func(c *gscalar.Config) { c.EpochCycles = 64 },
	} {
		cfg := gscalar.DefaultConfig()
		mod(&cfg)
		s, err := gscalar.NewSession(cfg, gscalar.GScalar)
		if err != nil {
			t.Fatal(err)
		}
		s.Capture.Path = filepath.Join(t.TempDir(), "x.gstr")
		if _, err := s.RunWorkload(context.Background(), "HS", 1); err == nil {
			t.Errorf("capture with Workers=%d EpochCycles=%d succeeded, want error", cfg.Workers, cfg.EpochCycles)
		}
	}
}

// TestTraceCaptureSequence pins capture on RunSequence: a one-step sequence
// is a single launch and records a replayable trace, while a multi-launch
// sequence is rejected and writes nothing.
func TestTraceCaptureSequence(t *testing.T) {
	prog, err := gscalar.Assemble(`
.kernel scale3
	mov  r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	imul r3, r2, 3
	shl  r4, r2, 2
	iadd r5, $0, r4
	stg  [r5], r3
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	run := func(steps int, path string) (gscalar.Result, error) {
		s, err := gscalar.NewSession(cfg, gscalar.GScalar)
		if err != nil {
			t.Fatal(err)
		}
		s.Capture.Path = path
		mem := gscalar.NewMemory()
		out := mem.Alloc(256 * 4)
		kl := gscalar.KernelLaunch{Prog: prog, Launch: gscalar.Launch{GridX: 2, BlockX: 128, Params: []uint32{out}}}
		seq := make([]gscalar.KernelLaunch, steps)
		for i := range seq {
			seq[i] = kl
		}
		return s.RunSequence(context.Background(), mem, seq)
	}

	dir := t.TempDir()
	two := filepath.Join(dir, "two.gstr")
	if _, err := run(2, two); err == nil || !strings.Contains(err.Error(), "multi-launch") {
		t.Errorf("two-step capture: err = %v, want the multi-launch rejection", err)
	}
	if _, err := trace.ReadFile(two); err == nil {
		t.Error("rejected two-step capture wrote a trace")
	}

	one := filepath.Join(dir, "one.gstr")
	live, err := run(1, one)
	if err != nil {
		t.Fatal(err)
	}
	s, err := gscalar.NewSession(cfg, gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := s.RunWorkload(context.Background(), "trace:"+one, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultJSON(t, replay), resultJSON(t, live); got != want {
		t.Errorf("one-step sequence replay differs from the live run:\nreplay %s\nlive   %s", got, want)
	}
}

// TestUnknownWorkloadSpec pins the error contract: an unknown spec names
// the valid workloads, and a trace spec pointing at a missing or truncated
// file surfaces the trace package's typed errors.
func TestUnknownWorkloadSpec(t *testing.T) {
	s, err := gscalar.NewSession(gscalar.DefaultConfig(), gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunWorkload(context.Background(), "NOPE", 1)
	var unk *gscalar.UnknownWorkloadError
	if !errors.As(err, &unk) {
		t.Fatalf("unknown workload error = %v, want *UnknownWorkloadError", err)
	}
	for _, want := range []string{"NOPE", "HS", "trace:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	if _, err := s.RunWorkload(context.Background(), "trace:"+filepath.Join(t.TempDir(), "missing.gstr"), 1); err == nil {
		t.Error("missing trace file: want error")
	}

	if _, err := gscalar.CanonicalWorkloadKey("NOPE"); !errors.As(err, &unk) {
		t.Errorf("CanonicalWorkloadKey unknown spec error = %v", err)
	}
	key, err := gscalar.CanonicalWorkloadKey("HS")
	if err != nil || key != "HS" {
		t.Errorf("CanonicalWorkloadKey(HS) = %q, %v", key, err)
	}
}

// TestTraceContentKeyStable pins the content-addressing property: capturing
// the same run twice produces byte-identical files, hence equal canonical
// keys, regardless of path.
func TestTraceContentKeyStable(t *testing.T) {
	_, p1 := captureWorkload(t, gscalar.GScalar, "MQ", 1)
	_, p2 := captureWorkload(t, gscalar.GScalar, "MQ", 1)
	k1, err := gscalar.CanonicalWorkloadKey("trace:" + p1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := gscalar.CanonicalWorkloadKey("trace:" + p2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("same capture, different keys:\n%s\n%s", k1, k2)
	}
	if len(k1) != len("trace:")+64 {
		t.Errorf("key %q, want trace:<sha256hex>", k1)
	}
}

// TestTraceKeyFollowsOverwrite pins that a trace spec names the file's
// current content, not whatever was first read from its path: after the
// capture behind a path is atomically replaced by a different one, both the
// canonical key and the replay follow the new file.
func TestTraceKeyFollowsOverwrite(t *testing.T) {
	_, path := captureWorkload(t, gscalar.GScalar, "HS", 1)
	spec := "trace:" + path
	before, err := gscalar.CanonicalWorkloadKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gscalar.DescribeWorkload(spec); err != nil {
		t.Fatal(err)
	}

	live, other := captureWorkload(t, gscalar.GScalar, "MQ", 1)
	if err := os.Rename(other, path); err != nil {
		t.Fatal(err)
	}
	after, err := gscalar.CanonicalWorkloadKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatalf("key %q did not change after the file was replaced", after)
	}
	replay, _ := runSpec(t, gscalar.GScalar, spec, 1, 0)
	if got, want := resultJSON(t, replay), resultJSON(t, live); got != want {
		t.Errorf("replay after overwrite does not match the new capture:\nreplay: %s\nlive:   %s", got, want)
	}
}
