package experiments

import (
	"context"
	"strings"
	"testing"

	"gscalar"
)

// smallSuite runs on a 2-SM chip over a 3-benchmark subset so the whole
// experiment path stays test-sized.
func smallSuite() *Suite {
	return NewSuite(Options{Config: twoSMs(), Workloads: []string{"HS", "MQ", "SAD"}})
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
	s, sims := countingSuite(Options{Config: twoSMs(), Workloads: []string{"HS", "MQ", "SAD"}})
	if _, err := s.Fig9(); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 3 || len(s.memo) != 3 {
		t.Fatalf("Fig9: %d simulations, %d memo entries; want 3 and 3", n, len(s.memo))
	}
	// The memo must serve Fig1 from the same G-Scalar runs: the second call
	// simulates nothing new.
	if _, err := s.Fig1(); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 3 {
		t.Errorf("Fig1 re-simulated despite the memo (%d simulations)", n)
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

// ablations are the experiments with variant points, keyed by name.
func ablations(s *Suite) map[string]func() error {
	return map[string]func() error{
		"sched":      func() error { _, err := s.SchedAblation(); return err },
		"half":       func() error { _, err := s.HalfAblation(); return err },
		"moves":      func() error { _, err := s.MoveOverhead(); return err },
		"scalarbank": func() error { _, err := s.ScalarBankAblation(); return err },
	}
}

// TestAblationLowersChipLoop pins that every ablation point runs on the
// chip loop its suite asks for: the relaxed loop lowers as a pair (epoch and
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
		cfg := twoSMs()
		if tc.relaxed {
			cfg.Relaxed, cfg.Workers = true, 2
		}
		s := NewSuite(Options{Config: cfg, Workloads: []string{"HS"}})
		for name, run := range ablations(s) {
			if err := run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pts, err := s.Points([]string{name})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				res := s.memo[memoKey(t, s, p)]
				if res.ExecMode != tc.mode || res.ResolvedWorkers != tc.workers {
					t.Errorf("relaxed=%v: %s point %+v ran %q with %d workers, want %s with %d",
						tc.relaxed, name, p, res.ExecMode, res.ResolvedWorkers, tc.mode, tc.workers)
				}
			}
		}
	}
}

// TestAblationsHonourConfig pins that the ablations simulate the chip the
// suite's configuration describes, not Table 1 with a few fields copied:
// their numbers equal independent public sessions on the same config.
func TestAblationsHonourConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := twoSMs()
	cfg.MemChannels = 2
	cfg.L1Bytes = 65536
	const abbr = "LBM"
	ipc := func(arch gscalar.Arch) float64 {
		sess, err := gscalar.NewSession(cfg, arch)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.RunWorkload(context.Background(), abbr, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	s := NewSuite(Options{Config: cfg, Workloads: []string{abbr}})

	sched, err := s.SchedAblation()
	if err != nil {
		t.Fatal(err)
	}
	if want := ipc(gscalar.GScalar); sched[0].GTOIPC != want {
		t.Errorf("sched GTO IPC = %v, want the G-Scalar session's %v", sched[0].GTOIPC, want)
	}
	bank, err := s.ScalarBankAblation()
	if err != nil {
		t.Fatal(err)
	}
	if want := ipc(gscalar.ALUScalar) / ipc(gscalar.Baseline); bank[0].ALUScalarIPC != want {
		t.Errorf("scalarbank ALU-scalar IPC = %v, want ALUScalar/Baseline sessions' %v", bank[0].ALUScalarIPC, want)
	}
}

// TestAblationsAcceptGenSpecs pins that every ablation resolves its
// workloads the way Session does, so a synthetic gen: kernel runs through
// all of them.
func TestAblationsAcceptGenSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := NewSuite(Options{Config: twoSMs(), Workloads: []string{"gen:div=0.3,occ=0.1"}})
	runs := ablations(s)
	runs["compiler"] = func() error { _, err := s.CompilerScalar(); return err }
	for name, run := range runs {
		if err := run(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestFig10HonoursWarpSize pins Fig 10's columns to their labels at a
// configuration whose warps are already 64 wide and whose resident-thread
// capacity is not Table 1's: half@32 is a real 32-wide run (the Warp32
// variant), quarter@64 is the suite's public point, and both equal the
// public Session.WarpSizeSweep on the same configuration. (Both widen warps
// with Config.WithWarpSize, whose rule TestWithWarpSize pins; half-warp
// eligibility alone does not depend on the resident-warp count.)
func TestFig10HonoursWarpSize(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := twoSMs()
	cfg.WarpSize, cfg.MaxWarpsPerSM = 64, 16
	const abbr = "HS"
	s := NewSuite(Options{Config: cfg, Workloads: []string{abbr}})
	pts, err := s.Points([]string{"fig10"})
	if err != nil {
		t.Fatal(err)
	}
	wantPts := []Point{{Arch: gscalar.GScalar, Abbr: abbr}, {Arch: gscalar.GScalar, Abbr: abbr, Variant: Warp32}}
	if len(pts) != 2 || pts[0] != wantPts[0] || pts[1] != wantPts[1] {
		t.Errorf("Points(fig10) = %+v, want %+v", pts, wantPts)
	}
	rows, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := gscalar.NewSession(cfg, gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := sess.WarpSizeSweep(context.Background(), abbr, []int{32, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Half32 == r.Half64 {
		t.Fatalf("half@32 = quarter@64 = %v: the widths are not told apart", r.Half32)
	}
	if r.Half32 != sweep[0].HalfFrac || r.Half64 != sweep[1].HalfFrac {
		t.Errorf("Fig 10 row %+v, want WarpSizeSweep's half@32 %v, quarter@64 %v",
			r, sweep[0].HalfFrac, sweep[1].HalfFrac)
	}
}
