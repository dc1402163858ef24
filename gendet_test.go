package gscalar_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"gscalar"
	"gscalar/internal/gen"
	"gscalar/internal/workloads"
)

// The gendet suite holds the synthetic generator's calibration contract:
// the *measured* telemetry of a generated kernel lands within tolerance of
// its dial vector. Share dials (div, sfu, mem) are asserted on every
// architecture; the RF read-class mix only exists on compressing
// architectures (the baseline never classifies reads), so it is asserted
// on G-Scalar.
//
// Tolerances: one slot out of the ~33 instructions per arm execution is
// ~0.03 of the total, and rounding in the divergent-iteration count moves
// shares by a similar amount, so 0.05 (shares) / 0.06 (read classes) give
// the solver one quantum of slack without letting a mis-calibration pass.
const (
	genTolShare = 0.05
	genTolRF    = 0.06
)

// genGrid is the dial-accuracy grid. Every point is chosen feasible: the
// template has structural reads (a ~0.14 scalar floor from the loop
// counter arithmetic, forced 3-byte reads from coalesced address registers,
// forced 1-byte reads from scatter addresses) and high divergence shrinks
// the convergent executions that carry true-class reads — so points with
// heavy memory traffic request matching read classes, and the div=0.6
// point requests the small mix that remains reachable. All points run at
// low occupancy to keep the suite fast; occupancy only scales the grid.
var genGrid = []string{
	"occ=0.2",
	"div=0.15,occ=0.2",
	"div=0.3,occ=0.2",
	"div=0.45,occ=0.2",
	"div=0.6,rs=0.1,r3=0.05,occ=0.2",
	"sfu=0.15,occ=0.2",
	"sfu=0.3,occ=0.2",
	"sfu=0.4,mem=0.1,occ=0.2",
	"sfu=0,mem=0,occ=0.2",
	"mem=0.2,r3=0.2,occ=0.2",
	"mem=0.3,r3=0.25,rs=0.25,occ=0.2",
	"mem=0.3,coal=0.5,r3=0.2,r1=0.1,occ=0.2",
	"mem=0.45,coal=0,r1=0.3,rs=0.2,r3=0.1,occ=0.2",
	"rs=0.5,r3=0.1,r2=0.1,r1=0.1,occ=0.2",
	"rs=0.1,r3=0.3,r2=0.1,r1=0.1,occ=0.2",
	"rs=0.15,r3=0.1,r2=0.1,r1=0.1,occ=0.2",
	"div=0.3,sfu=0.2,mem=0.2,coal=0.5,r3=0.18,r1=0.1,occ=0.2",
	"div=0.2,sfu=0.1,mem=0.15,rs=0.35,occ=0.2",
	"div=0.3,sfu=0.2,mem=0.2,coal=0.5,r3=0.18,r1=0.1,seed=7,occ=0.2",
	"seed=123,occ=0.2",
	"div=0.3,sfu=0.25,occ=0.1",
	"mem=0.25,r3=0.22,occ=0.3",
}

func genParams(t *testing.T, spec string) gen.Params {
	t.Helper()
	ps, err := workloads.ParseSpec("gen:" + spec)
	if err != nil {
		t.Fatal(err)
	}
	return ps.Gen
}

// TestGenDialAccuracy drives every grid point through a real simulation on
// both architectures and checks the measured shares against the dials.
func TestGenDialAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := gscalar.DefaultConfig()
	grid := genGrid
	archs := []gscalar.Arch{gscalar.Baseline, gscalar.GScalar}
	for _, spec := range grid {
		p := genParams(t, spec)
		for _, arch := range archs {
			arch := arch
			t.Run(fmt.Sprintf("%s/%s", arch, spec), func(t *testing.T) {
				t.Parallel()
				res, err := runWorkloadVia(t, cfg, arch, "gen:"+spec, 1)
				if err != nil {
					t.Fatal(err)
				}
				checkShare := func(name string, got, want float64) {
					if math.Abs(got-want) > genTolShare {
						t.Errorf("%s = %.3f, dial requests %.3f (tol %.2f)", name, got, want, genTolShare)
					}
				}
				checkShare("frac_divergent", res.FracDivergent, p.Div)
				checkShare("inst_mix.sfu", res.InstMix.SFU, p.SFU)
				checkShare("inst_mix.mem", res.InstMix.Mem, p.Mem)
				if arch == gscalar.Baseline {
					// No compression hardware ⇒ no read classification.
					if res.RFAccess != (gscalar.RFAccessDist{}) {
						t.Errorf("baseline classified RF reads: %+v", res.RFAccess)
					}
					return
				}
				d := res.RFAccess
				for _, c := range []struct {
					name      string
					got, want float64
				}{
					{"rf.scalar", d.Scalar, p.Scalar},
					{"rf.b3", d.B3, p.B3},
					{"rf.b2", d.B2, p.B2},
					{"rf.b1", d.B1, p.B1},
				} {
					if math.Abs(c.got-c.want) > genTolRF {
						t.Errorf("%s = %.3f, dial requests %.3f (tol %.2f)", c.name, c.got, c.want, genTolRF)
					}
				}
			})
		}
	}
}

// TestGenRelaxedMatchesSerial: a generated workload is as deterministic as
// a builtin. The relaxed loop perturbs timing only, so it reproduces every
// executed-program counter of the serial loop exactly — instruction counts,
// the instruction mix, the divergence fraction, the eligibility shares and
// the RF read classes — and the dials hold on both loops. Relaxed runs are
// bit-identical across worker counts, power included.
func TestGenRelaxedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	specs := []string{
		"gen:div=0.3,occ=0.2",
		"gen:div=0.3,sfu=0.2,mem=0.2,coal=0.5,r3=0.18,r1=0.1,occ=0.2",
		"gen:mem=0.3,r3=0.25,rs=0.25,seed=42,occ=0.2",
	}
	run := func(spec string, relaxed bool, workers int) gscalar.Result {
		t.Helper()
		cfg := gscalar.DefaultConfig()
		cfg.Relaxed = relaxed
		cfg.Workers = workers
		res, err := runWorkloadVia(t, cfg, gscalar.GScalar, spec, 1)
		if err != nil {
			t.Fatalf("%s (relaxed=%v, workers=%d): %v", spec, relaxed, workers, err)
		}
		return res
	}
	for _, spec := range specs {
		serial := run(spec, false, 0)
		relaxed := run(spec, true, 4)
		if relaxed.ExecMode != "relaxed" {
			t.Fatalf("%s: ExecMode = %q, want relaxed", spec, relaxed.ExecMode)
		}
		if relaxed.WarpInsts != serial.WarpInsts || relaxed.ThreadInsts != serial.ThreadInsts {
			t.Errorf("%s: instruction counts diverged: warp %d vs serial %d, thread %d vs serial %d",
				spec, relaxed.WarpInsts, serial.WarpInsts, relaxed.ThreadInsts, serial.ThreadInsts)
		}
		if relaxed.InstMix != serial.InstMix {
			t.Errorf("%s: instruction mix %+v vs serial %+v", spec, relaxed.InstMix, serial.InstMix)
		}
		if relaxed.FracDivergent != serial.FracDivergent {
			t.Errorf("%s: divergent fraction %v vs serial %v", spec, relaxed.FracDivergent, serial.FracDivergent)
		}
		if relaxed.Eligibility != serial.Eligibility {
			t.Errorf("%s: eligibility %+v vs serial %+v", spec, relaxed.Eligibility, serial.Eligibility)
		}
		if relaxed.RFAccess != serial.RFAccess {
			t.Errorf("%s: RF read classes %+v vs serial %+v", spec, relaxed.RFAccess, serial.RFAccess)
		}
		one := run(spec, true, 1)
		if !reflect.DeepEqual(stripExecMeta(one), stripExecMeta(relaxed)) {
			t.Errorf("%s: relaxed results differ between 1 and 4 workers:\n%+v\nvs\n%+v", spec, one, relaxed)
		}
	}
}

// TestGenDeterminismGate is the generator's reproducibility gate: the same
// spec yields a byte-identical program, a byte-identical memory image and
// the same content key on every build, at every GOMAXPROCS — which is what
// makes "gen:" specs safe to key the content-addressed result store.
func TestGenDeterminismGate(t *testing.T) {
	const spec = "div=0.3,sfu=0.2,mem=0.25,coal=0.5,seed=9,occ=0.2"
	p := genParams(t, spec)

	type build struct {
		gasm  string
		key   string
		next  uint32
		pages []byte
	}
	buildOnce := func() build {
		t.Helper()
		src, err := workloads.Resolve("gen:" + spec)
		if err != nil {
			t.Fatal(err)
		}
		_, lc, mem, err := gen.Build(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if lc.Grid.X <= 0 {
			t.Fatal("empty grid")
		}
		next, pages := mem.Snapshot()
		var flat bytes.Buffer
		for _, pg := range pages {
			fmt.Fprintf(&flat, "%d:", pg.ID)
			flat.Write(pg.Data)
		}
		return build{gasm: gen.Render(p), key: src.Key(), next: next, pages: flat.Bytes()}
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var first build
	for i, procs := range []int{prev, 1, 2, prev} {
		runtime.GOMAXPROCS(procs)
		b := buildOnce()
		if i == 0 {
			first = b
			if b.key != "gen:"+p.Canonical() {
				t.Fatalf("key = %q, want canonical gen:%s", b.key, p.Canonical())
			}
			continue
		}
		if b.gasm != first.gasm {
			t.Errorf("GOMAXPROCS=%d: program text differs", procs)
		}
		if b.key != first.key {
			t.Errorf("GOMAXPROCS=%d: key %q != %q", procs, b.key, first.key)
		}
		if b.next != first.next || !bytes.Equal(b.pages, first.pages) {
			t.Errorf("GOMAXPROCS=%d: memory image differs", procs)
		}
	}
}

// TestGenSpecCanonicalKeysAgree: every spelling of one dial vector shares a
// canonical workload key, so sweeps and the serve store never simulate the
// same synthetic point twice.
func TestGenSpecCanonicalKeysAgree(t *testing.T) {
	spellings := []string{
		"gen:div=0.30,sfu=0.2,seed=07",
		"gen:seed=7,sfu=0.20,div=0.3",
		"gen:div=0.3,sfu=0.2,seed=7,mem=0.1,coal=1",
	}
	want := ""
	for i, s := range spellings {
		key, err := gscalar.CanonicalWorkloadKey(s)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = key
			continue
		}
		if key != want {
			t.Errorf("key(%q) = %q, want %q", s, key, want)
		}
	}
	if want != "gen:div=0.3,seed=7,sfu=0.2" {
		t.Errorf("canonical key = %q", want)
	}
}
