package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gscalar"
	"gscalar/internal/experiments"
)

// paperFigures are the figures paper-sweep prewarms and renders.
var paperFigures = []string{"fig1", "fig8", "fig9", "fig11", "fig12"}

// prewarmSlots is the closed loop's concurrency: the Prewarm(points, 2)
// fan-out of the paper-reproduction CLI at -parallel 2.
const prewarmSlots = 2

// nominalSweep is the host time of one sweep on the reference host.
const nominalSweep = 9.0

// sweepMaxCycles is the abort bound of the first sweep's config; sweep k
// uses sweepMaxCycles+k. Every point finishes far below it, so the bound
// changes no result, but it is part of the config hash: each sweep gets its
// own keys in the experiments package's process-wide result cache and is a
// full cold sweep rather than a replay of the previous one's cache hits.
const sweepMaxCycles = 100_000_000

// runPaperSweep runs sweeps of: prewarm the Fig 1/8/9/11/12 points of an
// experiments.Suite at the Table 1 config from two closed-loop slots, then
// render the five figures and check them against experiments_output.txt.
func runPaperSweep(e *env) error {
	r := e.r
	want, err := os.ReadFile(filepath.Join(e.root, "experiments_output.txt"))
	if err != nil {
		return err
	}
	abbrs := gscalar.Workloads()
	n := passes(e.seconds, nominalSweep, 2)

	var setups, builds []float64
	var suites []*experiments.Suite
	var pts []experiments.Point
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		b, err := buildAll(r, abbrs)
		if err != nil {
			return err
		}
		builds = append(builds, b...)
		suites = suites[:0]
		for k := 0; k < n; k++ {
			cfg := gscalar.DefaultConfig()
			cfg.MaxCycles = sweepMaxCycles + uint64(k)
			suites = append(suites, experiments.NewSuite(experiments.Options{Config: cfg}))
		}
		if pts, err = suites[0].Points(paperFigures); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.setSetup(setups)
	r.set("workloads.build_ms", median(builds))
	r.set("experiments.points", float64(len(pts)))

	// The simulated totals of one sweep: experiments.Suite does not expose
	// per-point Results, so they come from the digest table; the figure
	// checks below guard that the sweep simulated exactly those points.
	var sums passSums
	for _, p := range pts {
		d := e.digests[digestKey("serial", p.Arch, p.Abbr)]
		sums.add(d.WarpInsts, d.Cycles, d.DRAMTx, d.L1MissRate)
	}

	var rt rates
	var walls, tracedWalls, untracedWalls, prewarms, renders, lats []float64
	var fig11 []experiments.Fig11Row
	for k, suite := range suites {
		tr := r.tr
		if k%2 == 0 {
			tr = nil
		}
		runtime.GC()
		start := time.Now()
		sweep := tr.start("bench.sweep", 0, 0)
		pl, errs := prewarm(tr, sweep, suite, pts, shuffled(e.seed, k, len(pts)))
		prewarms = append(prewarms, time.Since(start).Seconds())
		lats = append(lats, pl...)
		for i, p := range pts {
			r.check(errs[i] == nil, "%s/%s: %v", p.Arch, p.Abbr, errs[i])
		}
		renderStart := time.Now()
		for _, fig := range paperFigures {
			sp := tr.start("experiments."+fig, sweep, 0)
			text, rows, err := renderFigure(suite, fig)
			tr.end(sp)
			if rows != nil {
				fig11 = rows
			}
			if r.check(err == nil, "%s: %v", fig, err) {
				err := compareFigure(string(want), text)
				r.check(err == nil, "%v", err)
			}
		}
		renders = append(renders, ms(time.Since(renderStart)))
		tr.end(sweep)
		wall := time.Since(start).Seconds()
		walls = append(walls, wall)
		rt.add(len(pts), sums.warpInsts, sums.cycles, wall)
		if tr != nil {
			tracedWalls = append(tracedWalls, wall)
		} else {
			untracedWalls = append(untracedWalls, wall)
		}
	}

	r.set("wall_s", median(walls))
	rt.set(r)
	r.set("point_p50_ms", median(lats))
	tv, tp := tail(lats)
	r.set("point_tail_ms", tv)
	r.set("bench.point_tail_pct", tp)
	r.set("bench.point_samples", float64(len(lats)))
	r.note("point_tail_ms is p%g of %d samples", tp, len(lats))
	var gains []float64
	for _, row := range fig11 {
		gains = append(gains, row.GScalar-1)
	}
	if len(gains) == 0 {
		return fmt.Errorf("figure 11 produced no rows")
	}
	r.set("ipcw_err_pp", 100*math.Abs(sum(gains)/float64(len(gains))-paperIPCWGain))
	sums.setSim(r)
	if r.tr != nil {
		r.set("experiments.prewarm_s", median(prewarms))
		r.set("experiments.render_ms", median(renders))
		r.set("trace.overhead_s", median(tracedWalls)-median(untracedWalls))
		return runDrivers(e, "serial")
	}
	return nil
}

// prewarm issues Suite.Prewarm one point per call from two closed-loop
// slots, so each point's latency is visible from outside: a slot takes the
// next point only when its previous one has finished. It returns the
// latencies in milliseconds and the per-point errors.
func prewarm(tr *tracer, parent int, suite *experiments.Suite, pts []experiments.Point, order []int) ([]float64, []error) {
	lats := make([]float64, len(pts))
	errs := make([]error, len(pts))
	next := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < prewarmSlots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sp := tr.start("experiments.Prewarm", parent, tr.point())
				t := time.Now()
				errs[i] = suite.Prewarm([]experiments.Point{pts[i]}, 1)
				lats[i] = ms(time.Since(t))
				tr.end(sp)
			}
		}()
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	return lats, errs
}

// renderFigure renders one figure from the suite's (prewarmed) cache, as the
// paper-reproduction CLI prints it. Figure 11 also returns its rows, which
// carry the IPC/W gains.
func renderFigure(s *experiments.Suite, fig string) (string, []experiments.Fig11Row, error) {
	switch fig {
	case "fig1":
		rows, err := s.Fig1()
		return experiments.FormatFig1(rows), nil, err
	case "fig8":
		rows, err := s.Fig8()
		return experiments.FormatFig8(rows), nil, err
	case "fig9":
		rows, err := s.Fig9()
		return experiments.FormatFig9(rows), nil, err
	case "fig11":
		rows, err := s.Fig11()
		return experiments.FormatFig11(rows), rows, err
	case "fig12":
		rows, err := s.Fig12()
		return experiments.FormatFig12(rows), nil, err
	}
	return "", nil, fmt.Errorf("unknown figure %s", fig)
}
