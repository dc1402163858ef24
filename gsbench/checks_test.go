package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gscalar"
	"gscalar/internal/experiments"
)

const root = ".."

// A simulated Result that differs from the digest table, or that ran on
// another chip loop than the workload asked for, is a failed operation.
func TestWrongResultCountsAsFailure(t *testing.T) {
	tab, err := loadDigests(root)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := gscalar.NewSession(gscalar.DefaultConfig(), gscalar.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunWorkload(context.Background(), "SR1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyResult(tab, "serial", 1, gscalar.Baseline, "SR1", res); err != nil {
		t.Fatalf("unchanged result: %v", err)
	}

	wrong := res
	wrong.DRAMTransactions++
	relaxedLabel := res
	relaxedLabel.ExecMode = "relaxed"
	r := newReport(false)
	r.check(verifyResult(tab, "serial", 1, gscalar.Baseline, "SR1", wrong) == nil, "wrong result")
	r.check(verifyResult(tab, "relaxed", 2, gscalar.Baseline, "SR1", res) == nil, "serial run where relaxed was asked for")
	r.check(verifyResult(tab, "serial", 1, gscalar.Baseline, "SR1", relaxedLabel) == nil, "mislabelled loop")
	if r.attempted != 3 || r.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 3 and 3", r.attempted, r.failed)
	}
}

// A rendered figure that differs from experiments_output.txt is a failed
// operation; the committed figure itself passes.
func TestFigureMismatchCountsAsFailure(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	output := string(b)
	const header = "Figure 11: normalized power efficiency (IPC/W) and G-Scalar IPC"
	sec, ok := figureSection(output, header)
	if !ok {
		t.Fatal("Figure 11 section not found")
	}
	if err := compareFigure(output, sec+"\n"); err != nil {
		t.Fatalf("committed section: %v", err)
	}
	r := newReport(false)
	changed := strings.Replace(sec, "MEAN   1.091", "MEAN   1.092", 1)
	if changed == sec {
		t.Fatal("test edit did not apply")
	}
	r.check(compareFigure(output, changed) == nil, "changed figure")
	r.check(compareFigure(output, "Figure 99: missing\nrow") == nil, "missing figure")
	if r.failed != 2 {
		t.Fatalf("failed %d, want 2", r.failed)
	}
}

// The figures a prewarmed suite renders equal experiments_output.txt.
func TestRenderedFigureMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 17 points")
	}
	b, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	s := experiments.NewSuite(experiments.Options{})
	text, _, err := renderFigure(s, "fig1")
	if err != nil {
		t.Fatal(err)
	}
	if err := compareFigure(string(b), text); err != nil {
		t.Fatal(err)
	}
}

// A warm-phase resubmission that simulates is a failed operation. The
// "warm" request here goes to a second server over a fresh store, so it
// must simulate; checkWarm has to catch that.
func TestWarmSimulationCountsAsFailure(t *testing.T) {
	p := gridPoint{gscalar.Baseline, "SR1", true}
	coldSrv, err := startInstance(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coldSrv.stop()
	cold, _, err := coldSrv.c.do(0, 0, p)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := startInstance(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.stop()
	before := fresh.srv.Stats()
	warm, _, err := fresh.c.do(0, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	after := fresh.srv.Stats()
	if checkWarm(before.Simulations, after.Simulations, warm.Cached, cold.Result, warm.Result) == nil {
		t.Fatal("a warm request that simulated passed the check")
	}

	// A true store hit on the first server passes.
	before = coldSrv.srv.Stats()
	hit, _, err := coldSrv.c.do(0, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	after = coldSrv.srv.Stats()
	if err := checkWarm(before.Simulations, after.Simulations, hit.Cached, cold.Result, hit.Result); err != nil {
		t.Fatalf("store hit: %v", err)
	}
	if checkWarm(0, 0, true, cold.Result, append([]byte(" "), hit.Result...)) == nil {
		t.Fatal("differing bytes passed the check")
	}
}

// BENCHMARK.json lists exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

func TestTailLeavesTenSamples(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{{100, 90, 90}, {102, 90, 92}, {1000, 99, 990}, {19, 50, 10}} {
		v, p := tail(mk(c.n))
		if p != c.pct || v != c.val {
			t.Errorf("tail of %d samples = p%g %g, want p%g %g", c.n, p, v, c.pct, c.val)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve.submit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "serve.wait", Start: 30, End: 60},
	}
	got := tr.selfSeconds()
	if got["bench"] != 50e-9 || got["serve"] != 60e-9 {
		t.Fatalf("self times %v, want bench 50ns and serve 60ns", got)
	}
}
