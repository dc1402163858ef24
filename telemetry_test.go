package gscalar_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"gscalar"
)

// metricsFixture builds a small hand-crafted Metrics value with a stable
// shape, so the exporter golden tests are independent of the simulator.
func metricsFixture() *gscalar.Metrics {
	return &gscalar.Metrics{
		Workload:   "HS",
		Arch:       "gscalar",
		ConfigHash: "deadbeef",
		ClockHz:    1e6, // 1 cycle = 1 µs, so trace timestamps are readable
		NumSMs:     2,
		Counters: []gscalar.CounterValue{
			{Name: "mem.dram_chan_tx", Instance: 0, Value: 7},
			{Name: "sm.warp_insts", Instance: 0, Value: 100},
			{Name: "sm.warp_insts", Instance: 1, Value: 50},
		},
		Series: gscalar.Series{
			SampleStride:     64,
			EnergyComponents: []string{"exec", "rf"},
			RFAccessClasses:  []string{"scalar", "none"},
			Samples: []gscalar.Sample{
				{Cycle: 64, WarpInsts: 60, IPC: 0.9375, LiveSMs: 2,
					PerSM:    []gscalar.SMSample{{Retired: 40, LiveWarps: 3}, {Retired: 20, LiveWarps: 2}},
					EnergyPJ: []float64{10, 5}, RFReads: []uint64{30, 6}},
				{Cycle: 128, WarpInsts: 150, IPC: 1.171875, LiveSMs: 1,
					PerSM:    []gscalar.SMSample{{Retired: 100, LiveWarps: 1}, {Retired: 50, LiveWarps: 0}},
					EnergyPJ: []float64{22, 11}, RFReads: []uint64{70, 12}},
			},
		},
	}
}

// TestMetricsWriteJSONGolden pins the JSON export shape: the field names are
// a stable machine-readable contract.
func TestMetricsWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := metricsFixture().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	for _, key := range []string{"workload", "arch", "config_hash", "clock_hz", "num_sms", "counters", "series"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON export lacks top-level key %q", key)
		}
	}
	series, ok := decoded["series"].(map[string]any)
	if !ok {
		t.Fatal("series is not an object")
	}
	samples, ok := series["samples"].([]any)
	if !ok || len(samples) != 2 {
		t.Fatalf("series.samples = %v, want 2 entries", series["samples"])
	}
	first, ok := samples[0].(map[string]any)
	if !ok {
		t.Fatal("sample is not an object")
	}
	for _, key := range []string{"cycle", "warp_insts", "ipc", "live_sms", "per_sm", "energy_pj", "rf_reads"} {
		if _, ok := first[key]; !ok {
			t.Errorf("sample lacks key %q", key)
		}
	}

	// A set exports under a "runs" wrapper.
	buf.Reset()
	if err := (gscalar.MetricsSet{metricsFixture(), metricsFixture()}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var set struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &set); err != nil || len(set.Runs) != 2 {
		t.Fatalf("set export: err=%v runs=%d, want 2", err, len(set.Runs))
	}
}

// TestMetricsWriteCSVGolden pins the CSV export byte-for-byte.
func TestMetricsWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := metricsFixture().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"workload,arch,name,instance,value",
		"HS,gscalar,mem.dram_chan_tx,0,7",
		"HS,gscalar,sm.warp_insts,0,100",
		"HS,gscalar,sm.warp_insts,1,50",
		"",
		"workload,arch,cycle,warp_insts,ipc,live_sms,energy_exec_pj,energy_rf_pj,rf_reads_scalar,rf_reads_none,sm0_retired,sm0_live_warps,sm1_retired,sm1_live_warps",
		"HS,gscalar,64,60,0.9375,2,10,5,30,6,40,3,20,2",
		"HS,gscalar,128,150,1.171875,1,22,11,70,12,100,1,50,0",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("CSV export:\n%s\nwant:\n%s", got, want)
	}

	// Heterogeneous sets must be rejected rather than silently misaligned.
	other := metricsFixture()
	other.NumSMs = 3
	err := gscalar.MetricsSet{metricsFixture(), other}.WriteCSV(&buf)
	if err == nil || !strings.Contains(err.Error(), "homogeneous") {
		t.Errorf("heterogeneous CSV export: err = %v, want homogeneity error", err)
	}
}

// TestMetricsWriteTraceGolden checks the Chrome trace-event export: valid
// JSON with the expected event mix and microsecond timestamps.
func TestMetricsWriteTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := metricsFixture().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", trace.DisplayTimeUnit)
	}
	counts := map[string]int{}
	var activeInsts float64
	for _, ev := range trace.TraceEvents {
		counts[ev.Ph+"/"+ev.Name]++
		if ev.Ph == "X" && ev.Name == "active" {
			activeInsts += ev.Args["insts"].(float64)
		}
	}
	// 1 process_name + 2 thread_name metadata, one active interval per SM
	// (both SMs commit in both samples, so the intervals merge), 2 samples
	// of each counter track.
	for key, want := range map[string]int{
		"M/process_name": 1,
		"M/thread_name":  2,
		"X/active":       2,
		"C/ipc":          2,
		"C/live_sms":     2,
	} {
		if counts[key] != want {
			t.Errorf("event count %s = %d, want %d", key, counts[key], want)
		}
	}
	// Every retired instruction of the fixture shows up in exactly one
	// active interval: 100 + 50 across both SMs.
	if activeInsts != 150 {
		t.Errorf("active intervals carry %v insts, want 150", activeInsts)
	}
}

// TestTelemetrySmoke runs a real workload with telemetry on and checks the
// collected metrics are consistent with the Result.
func TestTelemetrySmoke(t *testing.T) {
	cfg := gscalar.DefaultConfig()
	s, err := gscalar.NewSession(cfg, gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	s.Telemetry = gscalar.TelemetryOptions{Enabled: true, SampleStride: 64}
	res, err := s.RunWorkload(context.Background(), "HS", 1)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m == nil {
		t.Fatal("Metrics() = nil after a telemetry-enabled run")
	}
	if m.Workload != "HS" || m.Arch != "gscalar" || m.ConfigHash != s.Config().Hash() {
		t.Errorf("metrics identity = (%q, %q, %q), want (HS, gscalar, %q)",
			m.Workload, m.Arch, m.ConfigHash, s.Config().Hash())
	}
	if m.NumSMs != cfg.NumSMs {
		t.Errorf("NumSMs = %d, want %d", m.NumSMs, cfg.NumSMs)
	}
	if m.Series.SampleStride != 64 {
		t.Errorf("SampleStride = %d, want 64", m.Series.SampleStride)
	}

	// The per-SM warp_insts counters must sum exactly to the Result's total.
	var warpInsts float64
	var sawRF, sawMem, sawPower bool
	for _, c := range m.Counters {
		switch {
		case c.Name == "sm.warp_insts":
			warpInsts += c.Value
		case strings.HasPrefix(c.Name, "rf."):
			sawRF = true
		case strings.HasPrefix(c.Name, "mem."):
			sawMem = true
		case strings.HasPrefix(c.Name, "power."):
			sawPower = true
		}
	}
	if warpInsts != float64(res.WarpInsts) {
		t.Errorf("sum(sm.warp_insts) = %v, Result.WarpInsts = %d", warpInsts, res.WarpInsts)
	}
	if !sawRF || !sawMem || !sawPower {
		t.Errorf("counter families missing: rf=%v mem=%v power=%v", sawRF, sawMem, sawPower)
	}

	// The series ends exactly at the run's final cycle, and the final sample
	// accounts for every committed instruction.
	n := len(m.Series.Samples)
	if n == 0 {
		t.Fatal("empty series despite 64-cycle stride")
	}
	last := m.Series.Samples[n-1]
	if last.Cycle != res.Cycles {
		t.Errorf("last sample at cycle %d, run ended at %d", last.Cycle, res.Cycles)
	}
	if last.WarpInsts != res.WarpInsts {
		t.Errorf("last sample WarpInsts = %d, Result %d", last.WarpInsts, res.WarpInsts)
	}
	for i := 1; i < n; i++ {
		if m.Series.Samples[i].Cycle <= m.Series.Samples[i-1].Cycle {
			t.Fatalf("series cycles not strictly increasing at %d: %d then %d",
				i, m.Series.Samples[i-1].Cycle, m.Series.Samples[i].Cycle)
		}
	}

	// All three exporters must succeed on real data.
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Errorf("WriteJSON: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("WriteJSON produced invalid JSON")
	}
	buf.Reset()
	if err := m.WriteCSV(&buf); err != nil {
		t.Errorf("WriteCSV: %v", err)
	}
	buf.Reset()
	if err := m.WriteTrace(&buf); err != nil {
		t.Errorf("WriteTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("WriteTrace produced invalid JSON")
	}
}

// TestTelemetryDoesNotPerturbResults is the bit-identity acceptance bar:
// enabling telemetry must change neither the Result (exact floating point
// included) nor the config hash, under both the serial and the relaxed loop.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	for _, relaxed := range []bool{false, true} {
		cfg := gscalar.DefaultConfig()
		if relaxed {
			// Spelled out in normalized form so the hash check below
			// compares like with like.
			cfg.Relaxed, cfg.EpochCycles, cfg.Workers = true, gscalar.DefaultEpochCycles, 8
		}
		plain, err := runWorkloadVia(t, cfg, gscalar.GScalar, "HS", 1)
		if err != nil {
			t.Fatal(err)
		}

		s, err := gscalar.NewSession(cfg, gscalar.GScalar)
		if err != nil {
			t.Fatal(err)
		}
		s.Telemetry = gscalar.TelemetryOptions{Enabled: true, SampleStride: 128}
		instrumented, err := s.RunWorkload(context.Background(), "HS", 1)
		if err != nil {
			t.Fatal(err)
		}

		assertIdentical(t, "HS", gscalar.GScalar, plain, instrumented)
		if s.Config().Hash() != cfg.Hash() {
			t.Errorf("relaxed=%v: telemetry changed the config hash", relaxed)
		}
	}
}

// TestTelemetrySequence checks sequence runs: the cycle axis stays global
// across launches and counters fold across both kernels.
func TestTelemetrySequence(t *testing.T) {
	prog, err := gscalar.Assemble(`
.kernel double
	mov  r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl  r3, r2, 2
	iadd r4, $0, r3
	ldg  r5, [r4]
	iadd r5, r5, r5
	stg  [r4], r5
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	mem := gscalar.NewMemory()
	base := mem.AllocU32(make([]uint32, n))
	launch := gscalar.Launch{GridX: n / 128, BlockX: 128, Params: []uint32{base}}
	seq := []gscalar.KernelLaunch{{Prog: prog, Launch: launch}, {Prog: prog, Launch: launch}}

	s, err := gscalar.NewSession(cfg, gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	s.Telemetry = gscalar.TelemetryOptions{Enabled: true, SampleStride: 16}
	res, err := s.RunSequence(context.Background(), mem, seq)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m == nil {
		t.Fatal("Metrics() = nil after a telemetry-enabled sequence")
	}
	samples := m.Series.Samples
	if len(samples) < 2 {
		t.Fatalf("only %d samples across a two-kernel sequence", len(samples))
	}
	if last := samples[len(samples)-1]; last.Cycle != res.Cycles {
		t.Errorf("last sample at cycle %d, sequence ended at %d", last.Cycle, res.Cycles)
	}
	var warpInsts float64
	for _, c := range m.Counters {
		if c.Name == "sm.warp_insts" {
			warpInsts += c.Value
		}
	}
	if warpInsts != float64(res.WarpInsts) {
		t.Errorf("sum(sm.warp_insts) = %v over the sequence, Result.WarpInsts = %d",
			warpInsts, res.WarpInsts)
	}
}
