package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"gscalar"
)

// countingSuite builds a suite with telemetry on whose OnMetrics hook counts
// fresh simulations: a memo hit produces no metrics, so the counter is the
// number of points the suite actually simulated.
func countingSuite(o Options) (*Suite, *atomic.Int32) {
	var sims atomic.Int32
	o.Telemetry = gscalar.TelemetryOptions{Enabled: true}
	o.OnMetrics = func(Point, *gscalar.Metrics) { sims.Add(1) }
	return NewSuite(o), &sims
}

// twoSMs is the Table 1 configuration on a 2-SM chip, test-sized.
func twoSMs() gscalar.Config {
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	return cfg
}

// TestConfigKeyInvalidation checks that every semantically meaningful
// configuration change yields a distinct key — a changed config can never
// be served a stale result — while the worker count (which never changes
// results within one loop algorithm) is normalised so those entries are
// shared.
func TestConfigKeyInvalidation(t *testing.T) {
	key := func(cfg gscalar.Config, scale int) string {
		return PointKey(cfg, scale, gscalar.GScalar, "HS")
	}
	base := key(gscalar.DefaultConfig(), 1)

	// Every Config field but Workers is part of the simulation input.
	typ := reflect.TypeOf(gscalar.Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		cfg := gscalar.DefaultConfig()
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 3)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 3)
		case reflect.Float64:
			f.SetFloat(f.Float() * 2)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("field %s: unhandled kind %s", name, f.Kind())
		}
		if k := key(cfg, 1); (k == base) != (name == "Workers") {
			t.Errorf("changing %s: key changed = %v", name, k != base)
		}
	}
	if k := key(gscalar.DefaultConfig(), 2); k == base {
		t.Error("changing scale did not change the key")
	}

	// Workers is cleared: serial never has workers, and relaxed results do
	// not depend on the worker count, so every count shares the relaxed
	// key — which still differs from the serial one.
	relaxed := func(n int) string {
		cfg := gscalar.DefaultConfig()
		cfg.Relaxed = true
		cfg.Workers = n
		return key(cfg, 1)
	}
	if relaxed(0) != relaxed(1) || relaxed(1) != relaxed(8) || relaxed(1) != relaxed(-1) {
		t.Error("relaxed worker counts should share one key")
	}
	if relaxed(1) == base {
		t.Error("relaxed and serial loops must not share a key")
	}
	if !strings.Contains(base, "scale=1") {
		t.Errorf("key %q lacks the scale component", base)
	}
	if !strings.HasPrefix(base, gscalar.DefaultConfig().Hash()) {
		t.Errorf("key %q is not prefixed by the config content hash", base)
	}

	// The key hashes the normalized config: a sparse config denotes "Table 1
	// with these changes" and must share the entry of its explicit form.
	explicit := gscalar.DefaultConfig()
	explicit.NumSMs = 7
	if key(gscalar.Config{NumSMs: 7}, 1) != key(explicit, 1) {
		t.Error("sparse config and its normalized equivalent should share a key")
	}
}

// memoKey is p's memo key in s, derived as Suite.run derives it.
func memoKey(t *testing.T, s *Suite, p Point) string {
	t.Helper()
	p = s.canonical(p)
	w, err := s.resolve(p.Abbr)
	if err != nil {
		t.Fatal(err)
	}
	return s.key(p, w)
}

// TestVariantKeys pins the memo's key scheme: a public point keys exactly
// as PointKey, which the result store behind gscalar-serve also uses, and a
// variant point appends its label. Warp32 at Table 1's 32-wide warps is the
// public point itself.
func TestVariantKeys(t *testing.T) {
	s := NewSuite(Options{Workloads: []string{"HS"}})
	pub := PointKey(gscalar.DefaultConfig(), 1, gscalar.GScalar, "HS")
	for _, v := range []Variant{"", Warp32} {
		if k := memoKey(t, s, Point{Arch: gscalar.GScalar, Abbr: "HS", Variant: v}); k != pub {
			t.Errorf("point %q key = %q, want PointKey %q", v, k, pub)
		}
	}
	seen := map[string]Variant{}
	for _, v := range []Variant{"", Warp64, NoHalf, MoveElision, LRR} {
		k := memoKey(t, s, Point{Arch: gscalar.GScalar, Abbr: "HS", Variant: v})
		if v != "" && k != pub+"|"+string(v) {
			t.Errorf("%s key = %q, want PointKey + |%s", v, k, v)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("variants %q and %q share key %q", prev, v, k)
		}
		seen[k] = v
	}
}

// TestPrewarmDedupsConcurrentIdenticalPoints: under Prewarm(..., par>1),
// workers that miss the same key concurrently join one simulation, so each
// distinct point simulates exactly once.
func TestPrewarmDedupsConcurrentIdenticalPoints(t *testing.T) {
	s, sims := countingSuite(Options{Config: twoSMs(), Workloads: []string{"HW"}})

	// Four copies of the same point dispatched to four workers: all four
	// miss the (empty) memo near-simultaneously.
	p := Point{Arch: gscalar.GScalar, Abbr: "HW"}
	points := []Point{p, p, p, p}
	if err := s.Prewarm(points, len(points)); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("simulations = %d, want exactly 1 for one distinct point", n)
	}
	if len(s.memo) != 1 {
		t.Errorf("memo holds %d entries, want 1", len(s.memo))
	}
}

// TestErrorNotMemoized: a failed run must poison nothing — a cancelled
// point leaves the memo empty, and the next caller simulates it afresh.
func TestErrorNotMemoized(t *testing.T) {
	s, sims := countingSuite(Options{Config: twoSMs(), Workloads: []string{"HW"}})
	p := Point{Arch: gscalar.GScalar, Abbr: "HW"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.run(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if len(s.memo) != 0 {
		t.Fatal("a cancelled run was memoized")
	}
	if _, err := s.run(context.Background(), p); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if n := sims.Load(); n != 1 || len(s.memo) != 1 {
		t.Errorf("retry: %d simulations, %d memo entries; want 1 and 1", n, len(s.memo))
	}
}

// TestPrewarmMatchesSerial runs the same suite serially and with a
// parallel prewarm and requires identical figure rows — the ordering
// guarantee behind the -parallel flag.
func TestPrewarmMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opts := Options{Config: twoSMs(), Workloads: []string{"HS", "MQ", "SAD"}}

	want, err := NewSuite(opts).Fig11()
	if err != nil {
		t.Fatal(err)
	}

	par, sims := countingSuite(opts)
	points, err := par.Points([]string{"fig11"})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4*3 {
		t.Fatalf("fig11 points = %d, want 12", len(points))
	}
	if err := par.Prewarm(points, 4); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != int32(len(points)) {
		t.Errorf("prewarm simulated %d points, want %d", n, len(points))
	}
	got, err := par.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != int32(len(points)) {
		t.Errorf("Fig11 after prewarm simulated %d more points", n-int32(len(points)))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows differ:\nserial:   %+v\nparallel: %+v", want, got)
	}
}

// TestWarmRenderSimulatesNothing: Points lists every simulation of every
// experiment, so after prewarming Points(all) each experiment renders from
// the memo alone. width is the exception: its synthetic-kernel runs are
// not workload points.
func TestWarmRenderSimulatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s, sims := countingSuite(Options{Config: twoSMs(), Workloads: []string{"HS", "SAD"}})
	points, err := s.Points([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prewarm(points, 2); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != int32(len(points)) {
		t.Fatalf("prewarm simulated %d points, want len(Points) = %d", n, len(points))
	}
	render := map[string]func() error{
		"fig1":       func() error { _, err := s.Fig1(); return err },
		"fig8":       func() error { _, err := s.Fig8(); return err },
		"fig9":       func() error { _, err := s.Fig9(); return err },
		"fig10":      func() error { _, err := s.Fig10(); return err },
		"fig11":      func() error { _, err := s.Fig11(); return err },
		"fig12":      func() error { _, err := s.Fig12(); return err },
		"moves":      func() error { _, err := s.MoveOverhead(); return err },
		"compiler":   func() error { _, err := s.CompilerScalar(); return err },
		"half":       func() error { _, err := s.HalfAblation(); return err },
		"scalarbank": func() error { _, err := s.ScalarBankAblation(); return err },
		"sched":      func() error { _, err := s.SchedAblation(); return err },
	}
	for name := range expPoints {
		if render[name] == nil {
			t.Errorf("experiment %s simulates points but is not rendered here", name)
		}
	}
	for name, fn := range render {
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := sims.Load(); n != int32(len(points)) {
			t.Fatalf("rendering %s after prewarm simulated %d points", name, n-int32(len(points)))
		}
	}
}

func TestPrewarmPropagatesError(t *testing.T) {
	s := NewSuite(Options{Workloads: []string{"NOPE"}})
	if err := s.Prewarm([]Point{{Arch: gscalar.GScalar, Abbr: "NOPE"}}, 4); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestPointsDeduplicates(t *testing.T) {
	s := NewSuite(Options{Workloads: []string{"HS", "MQ"}})
	// fig1 and fig9 both need only the G-Scalar runs; the union must not
	// repeat them.
	pts, err := s.Points([]string{"fig1", "fig9"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %v, want one per workload", pts)
	}
	all, err := s.Points([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	// Six public architectures plus four variants, on each workload.
	if len(all) != (6+4)*2 {
		t.Errorf("Points(all) = %d points, want %d", len(all), (6+4)*2)
	}
	seen := map[Point]bool{}
	for _, p := range all {
		if seen[p] {
			t.Fatalf("duplicate point %+v", p)
		}
		seen[p] = true
	}
	for _, v := range []Variant{Warp64, NoHalf, MoveElision, LRR} {
		if !seen[Point{Arch: gscalar.GScalar, Abbr: "HS", Variant: v}] {
			t.Errorf("Points(all) lacks the %s point", v)
		}
	}
}

// TestPointsRejectsUnknownExperiment: a typo'd experiment name ("figg11")
// must fail with an error that lists the valid names, not silently
// prewarm nothing.
func TestPointsRejectsUnknownExperiment(t *testing.T) {
	s := NewSuite(Options{Workloads: []string{"HS"}})
	pts, err := s.Points([]string{"figg11"})
	if err == nil {
		t.Fatalf("Points(figg11) = %v, want error", pts)
	}
	for _, want := range []string{"figg11", "fig11", "table1", "width", "sched"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// Experiments without points (static tables, width) are still valid
	// names — they just contribute none.
	for _, name := range []string{"table1", "fig10", "width", "sched", "all"} {
		if !ValidExperiment(name) {
			t.Errorf("ValidExperiment(%q) = false", name)
		}
		if _, err := s.Points([]string{name}); err != nil {
			t.Errorf("Points(%q): %v", name, err)
		}
	}
	if ValidExperiment("figg11") {
		t.Error("ValidExperiment(figg11) = true")
	}
	for name := range expPoints {
		if !ValidExperiment(name) {
			t.Errorf("expPoints name %q missing from the experiment registry", name)
		}
	}
}
