package main

import (
	"context"
	"math"
	"runtime"
	"time"

	"gscalar"
)

// Nominal host times of one 34-point suite pass on the reference host
// (2-core Xeon); with --seconds they fix the pass count.
const (
	nominalSerialPass  = 5.0
	nominalRelaxedPass = 3.5
)

// paperIPCWGain is the paper's mean G-Scalar IPC/W gain over the baseline.
const paperIPCWGain = 0.24

// passSums accumulates one pass's simulated totals.
type passSums struct {
	warpInsts, cycles, dramTx float64
	missRates                 []float64
}

func (p *passSums) add(warpInsts, cycles, dramTx uint64, missRate float64) {
	p.warpInsts += float64(warpInsts)
	p.cycles += float64(cycles)
	p.dramTx += float64(dramTx)
	p.missRates = append(p.missRates, missRate)
}

// setSim reports the simulated totals of one pass.
func (p *passSums) setSim(r *report) {
	r.set("sim.warp_insts", p.warpInsts)
	r.set("sim.cycles", p.cycles)
	r.set("sim.dram_tx", p.dramTx)
	r.set("sim.l1_miss_rate", sum(sorted(p.missRates))/float64(len(p.missRates))) // sorted: exact whatever the point order
}

// ipcwErrPP is the simulated model error: abs(mean G-Scalar IPC/W gain over
// baseline − the paper's 24 %), in percentage points, over the workloads
// present in both maps.
func ipcwErrPP(base, gs map[string]float64) float64 {
	var gains []float64
	for _, abbr := range gscalar.Workloads() { // fixed order: the sum is exact run to run
		if b, g := base[abbr], gs[abbr]; b > 0 && g > 0 {
			gains = append(gains, g/b-1)
		}
	}
	if len(gains) == 0 {
		return 0
	}
	return math.Abs(100 * (sum(gains)/float64(len(gains)) - paperIPCWGain))
}

// runSuite runs all 17 builtins × {baseline, gscalar} through
// Session.RunWorkload, one point at a time, on the serial or the relaxed
// chip loop.
func runSuite(e *env, relaxed bool) error {
	r := e.r
	cfg, loop, workers, nominal := gscalar.DefaultConfig(), "serial", 1, nominalSerialPass
	if relaxed {
		cfg, loop, workers, nominal = relaxedConfig(), "relaxed", 2, nominalRelaxedPass
	}
	abbrs := gscalar.Workloads()

	var setups, builds []float64
	var sessions map[gscalar.Arch]*gscalar.Session
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		b, err := buildAll(r, abbrs)
		if err != nil {
			return err
		}
		builds = append(builds, b...)
		sessions = map[gscalar.Arch]*gscalar.Session{}
		for _, a := range suiteArchs {
			if sessions[a], err = gscalar.NewSession(cfg, a); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.setSetup(setups)
	r.set("workloads.build_ms", median(builds))

	type point struct {
		arch gscalar.Arch
		abbr string
	}
	var pts []point
	for _, a := range suiteArchs {
		for _, abbr := range abbrs {
			pts = append(pts, point{a, abbr})
		}
	}

	// A traced run alternates untraced and traced passes so the difference
	// of their wall times is the tracing overhead.
	n := passes(e.seconds, nominal, 2)
	var walls, tracedWalls, untracedWalls, lats []float64
	var rt rates
	var first passSums
	sessionMS := map[gscalar.Arch][]float64{}
	ipcw := map[gscalar.Arch]map[string]float64{gscalar.Baseline: {}, gscalar.GScalar: {}}
	for pass := 0; pass < n; pass++ {
		tr := r.tr
		if pass%2 == 0 {
			tr = nil
		}
		var sums passSums
		runtime.GC()
		passStart := time.Now()
		ps := tr.start("bench.pass", 0, 0)
		for _, i := range shuffled(e.seed, pass, len(pts)) {
			p := pts[i]
			sp := tr.start("gscalar.RunWorkload", ps, tr.point())
			t := time.Now()
			res, err := sessions[p.arch].RunWorkload(context.Background(), p.abbr, 1)
			d := time.Since(t)
			tr.end(sp)
			lats = append(lats, ms(d))
			if tr != nil {
				sessionMS[p.arch] = append(sessionMS[p.arch], ms(d))
			}
			if !r.check(err == nil, "%s/%s: %v", p.arch, p.abbr, err) {
				continue
			}
			if err := verifyResult(e.digests, loop, workers, p.arch, p.abbr, res); !r.check(err == nil, "%v", err) {
				continue
			}
			sums.add(res.WarpInsts, res.Cycles, res.DRAMTransactions, res.L1MissRate)
			ipcw[p.arch][p.abbr] = res.IPCPerW
		}
		tr.end(ps)
		wall := time.Since(passStart).Seconds()
		walls = append(walls, wall)
		rt.add(len(pts), sums.warpInsts, sums.cycles, wall)
		if tr != nil {
			tracedWalls = append(tracedWalls, wall)
		} else {
			untracedWalls = append(untracedWalls, wall)
		}
		if pass == 0 {
			first = sums
		} else {
			r.check(sums.warpInsts == first.warpInsts && sums.cycles == first.cycles && sums.dramTx == first.dramTx,
				"pass %d simulated totals differ from pass 0", pass)
		}
	}

	r.set("wall_s", median(walls))
	rt.set(r)
	r.set("point_p50_ms", median(lats))
	tv, tp := tail(lats)
	r.set("point_tail_ms", tv)
	r.set("bench.point_tail_pct", tp)
	r.set("bench.point_samples", float64(len(lats)))
	r.set("ipcw_err_pp", ipcwErrPP(ipcw[gscalar.Baseline], ipcw[gscalar.GScalar]))
	r.note("point_tail_ms is p%g of %d samples", tp, len(lats))
	first.setSim(r)
	if r.tr != nil {
		r.set("session.run_ms.baseline", median(sessionMS[gscalar.Baseline]))
		r.set("session.run_ms.gscalar", median(sessionMS[gscalar.GScalar]))
		r.set("trace.overhead_s", median(tracedWalls)-median(untracedWalls))
		return runDrivers(e, loop)
	}
	return nil
}
