package experiments

import (
	"strings"
	"testing"

	"gscalar"
	"gscalar/internal/sm"
)

// smallSuite runs on a 2-SM chip over a 3-benchmark subset so the whole
// experiment path stays test-sized.
func smallSuite() *Suite {
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	return NewSuite(Options{Config: cfg, Workloads: []string{"HS", "MQ", "SAD"}})
}

func TestSuiteFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := smallSuite()
	rows, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byAbbr := map[string]Fig1Row{}
	for _, r := range rows {
		byAbbr[r.Abbr] = r
	}
	// HS and SAD have substantial divergence with a divergent-scalar
	// component; MQ is essentially non-divergent.
	if byAbbr["HS"].Divergent < 0.2 || byAbbr["HS"].DivergentScalar == 0 {
		t.Errorf("HS = %+v", byAbbr["HS"])
	}
	if byAbbr["MQ"].Divergent > 0.05 {
		t.Errorf("MQ divergent = %v", byAbbr["MQ"].Divergent)
	}
	out := FormatFig1(rows)
	if !strings.Contains(out, "MEAN") || !strings.Contains(out, "HS") {
		t.Errorf("format output incomplete:\n%s", out)
	}
}

func TestSuiteFig9CachesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := smallSuite()
	s.r.cache = NewCache() // private cache so other tests cannot pre-warm it
	if _, err := s.Fig9(); err != nil {
		t.Fatal(err)
	}
	// The memoizing runner must serve Fig1 from the same G-Scalar runs: the
	// second call is pure cache hits and simulates nothing new.
	if s.r.cache.Len() < 3 {
		t.Fatalf("runner cache has %d entries", s.r.cache.Len())
	}
	before := s.r.cache.Len()
	_, missesBefore := s.r.cache.Counters()
	if _, err := s.Fig1(); err != nil {
		t.Fatal(err)
	}
	if s.r.cache.Len() != before {
		t.Errorf("Fig1 re-simulated despite cache (%d -> %d)", before, s.r.cache.Len())
	}
	if _, misses := s.r.cache.Counters(); misses != missesBefore {
		t.Errorf("Fig1 missed the cache (%d -> %d misses)", missesBefore, misses)
	}
}

func TestSuiteFig12Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := smallSuite()
	rows, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ours <= 0 || r.Ours >= 1.2 {
			t.Errorf("%s: ours = %v, implausible", r.Abbr, r.Ours)
		}
		if r.Ours > r.ScalarOnly+0.15 {
			t.Errorf("%s: byte-wise (%v) should not lose badly to scalar-only (%v)",
				r.Abbr, r.Ours, r.ScalarOnly)
		}
		if r.OursRatio < 1 || r.WCRatio < 1 {
			t.Errorf("%s: compression ratios %v/%v below 1", r.Abbr, r.OursRatio, r.WCRatio)
		}
	}
}

func TestSuiteUnknownWorkload(t *testing.T) {
	s := NewSuite(Options{Workloads: []string{"NOPE"}})
	if _, err := s.Fig1(); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestWidthSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := smallSuite()
	rows, err := s.WidthSweep([]int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Narrower data must compress better and burn less RF power.
	if rows[0].CompressionRatio <= rows[1].CompressionRatio {
		t.Errorf("8-bit ratio %v not better than 32-bit %v",
			rows[0].CompressionRatio, rows[1].CompressionRatio)
	}
	if rows[0].RFDynamicVsBase >= rows[1].RFDynamicVsBase {
		t.Errorf("8-bit RF power %v not lower than 32-bit %v",
			rows[0].RFDynamicVsBase, rows[1].RFDynamicVsBase)
	}
}

func TestFormatters(t *testing.T) {
	// Formatting must not depend on simulation: feed synthetic rows.
	f1 := FormatFig1([]Fig1Row{{"XX", 0.5, 0.25}})
	if !strings.Contains(f1, "50.0%") || !strings.Contains(f1, "25.0%") {
		t.Errorf("Fig1 formatting:\n%s", f1)
	}
	f11 := FormatFig11([]Fig11Row{{Abbr: "XX", ALUScalar: 1.1, GScalarNoDiv: 1.2, GScalar: 1.3, GScalarIPC: 0.98, BaselinePower: 100}})
	if !strings.Contains(f11, "1.300") {
		t.Errorf("Fig11 formatting:\n%s", f11)
	}
	f12 := FormatFig12([]Fig12Row{{Abbr: "XX", ScalarOnly: 0.6, WC: 0.5, Ours: 0.4, OursRatio: 2.2, WCRatio: 2.1}})
	if !strings.Contains(f12, "0.400") {
		t.Errorf("Fig12 formatting:\n%s", f12)
	}
	t1 := FormatTable1(gscalar.DefaultConfig())
	for _, want := range []string{"15", "1.4 GHz", "128 KB", "768 KB"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q:\n%s", want, t1)
		}
	}
	t2 := FormatTable2()
	for _, abbr := range gscalar.Workloads() {
		if !strings.Contains(t2, abbr) {
			t.Errorf("Table2 missing %s", abbr)
		}
	}
	t3 := FormatTable3()
	for _, want := range []string{"7332", "11624", "0.35", "0.67", "5.2%"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
}

func TestStaticUniformOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	// The compile-time analysis must run on the suite's workloads without
	// panicking, and can never exceed the dynamic hardware detection.
	s := smallSuite()
	rows, err := s.CompilerScalar()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Static > r.Dynamic+1e-9 {
			t.Errorf("%s: static %.3f exceeds dynamic %.3f", r.Abbr, r.Static, r.Dynamic)
		}
	}
}

// TestAblationLowersChipLoop pins that an ablation point runs on the chip
// loop its suite asks for: the relaxed loop lowers as a pair (epoch and
// workers), and a serial suite passes neither.
func TestAblationLowersChipLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, tc := range []struct {
		relaxed bool
		mode    string
		workers int
	}{
		{false, "serial", 1},
		{true, "relaxed", 2},
	} {
		cfg := gscalar.DefaultConfig()
		cfg.NumSMs = 2
		if tc.relaxed {
			cfg.Relaxed, cfg.Workers = true, 2
		}
		s := NewSuite(Options{Config: cfg, Workloads: []string{"HS"}})
		s.r.cache = NewCache()
		res, err := s.runCustomArch("HS", sm.GScalar())
		if err != nil {
			t.Fatal(err)
		}
		if res.ExecMode != tc.mode || res.Workers != tc.workers {
			t.Errorf("relaxed=%v: ablation point ran %s with %d workers, want %s with %d",
				tc.relaxed, res.ExecMode, res.Workers, tc.mode, tc.workers)
		}
	}
}

// TestAblationsAcceptGenSpecs pins that every ablation resolves its
// workloads the way Session does, so a synthetic gen: kernel runs through
// all four of them.
func TestAblationsAcceptGenSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	s := NewSuite(Options{Config: cfg, Workloads: []string{"gen:div=0.3,occ=0.1"}})
	for name, run := range map[string]func() error{
		"compiler":   func() error { _, err := s.CompilerScalar(); return err },
		"sched":      func() error { _, err := s.SchedAblation(); return err },
		"half":       func() error { _, err := s.HalfAblation(); return err },
		"scalarbank": func() error { _, err := s.ScalarBankAblation(); return err },
	} {
		if err := run(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
