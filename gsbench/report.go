package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints. Every workload reports
// every one of them; BENCHMARK.json lists the same names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"points_per_s", "1/s"},
	{"warp_insts_per_s", "1/s"},
	{"sim_cycles_per_s", "1/s"},
	{"point_p50_ms", "ms"},
	{"point_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"ipcw_err_pp", "pp"},
}

// perLayer are the metrics a traced run prints. A layer that does no work
// on a workload reports 0 (see README.md, "Per-layer metrics").
var perLayer = []metricDef{
	{"session.run_ms.baseline", "ms"},
	{"session.run_ms.gscalar", "ms"},
	{"workloads.build_ms", "ms"},
	{"workloads.check_ms", "ms"},
	{"asm.assemble_us", "us"},
	{"gpu.run_ms", "ms"},
	{"gpu.ns_per_sim_cycle", "ns"},
	{"sm.cycle_ns", "ns"},
	{"sm.ns_per_warp_inst", "ns"},
	{"sm.allocs_per_kcycle", "count"},
	{"sm.useful_cycle_frac", "ratio"},
	{"warp.exec_ns_per_inst", "ns"},
	{"warp.allocs_per_kinst", "count"},
	{"mem.coalesce_ns", "ns"},
	{"mem.l1_lookup_ns", "ns"},
	{"mem.l2_access_ns", "ns"},
	{"mem.estimate_ns", "ns"},
	{"mem.commit_deferred_ns", "ns"},
	{"mem.allocs_per_op", "count"},
	{"regfile.tryserve_ns", "ns"},
	{"regfile.read_access_ns", "ns"},
	{"regfile.allocs_per_op", "count"},
	{"core.compress_ns", "ns"},
	{"core.same_msb_ns", "ns"},
	{"core.onwrite_ns", "ns"},
	{"core.allocs_per_op", "count"},
	{"power.add_ns", "ns"},
	{"power.finish_us", "us"},
	{"power.allocs_per_op", "count"},
	{"experiments.points", "count"},
	{"experiments.prewarm_s", "s"},
	{"experiments.render_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"serve.submit_ms", "ms"},
	{"serve.simulations", "count"},
	{"serve.store_hits", "count"},
	{"serve.joins", "count"},
	{"serve.rejected", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_tail_ms", "ms"},
	{"serve.hit_tail_pct", "pct"},
	{"serve.hit_samples", "count"},
	{"bench.point_tail_pct", "pct"},
	{"bench.point_samples", "count"},
	{"sim.warp_insts", "count"},
	{"sim.cycles", "count"},
	{"sim.dram_tx", "count"},
	{"sim.l1_miss_rate", "ratio"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
	{"self_s.bench", "s"},
	{"self_s.gscalar", "s"},
	{"self_s.workloads", "s"},
	{"self_s.gpu", "s"},
	{"self_s.experiments", "s"},
	{"self_s.serve", "s"},
	{"self_s.store", "s"},
	{"self_s.drivers", "s"},
}

// report accumulates one run's checks and metrics and prints them.
type report struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	notes             []string
	tr                *tracer // nil in untraced runs
}

func newReport(traced bool) *report {
	r := &report{values: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// check counts one attempted operation and records a failure when ok is
// false. It returns ok.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// note adds a human-readable line printed above the result.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable summary and, as the last line, the
// result object. An end-to-end metric the workload failed to set is a bug
// in the benchmark and is returned as an error; a per-layer metric left
// unset means the layer did no work and prints as 0.
func (r *report) print(w io.Writer) error {
	defs := endToEnd
	if r.tr != nil {
		defs = perLayer
	}
	out := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && r.tr == nil {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "%-26s %16.6f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// Sample statistics.

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the middle pair for even counts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailLadder is the set of percentiles a tail is chosen from.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// tail returns the highest ladder percentile that leaves at least ten
// samples beyond it, with that percentile. Fewer than 20 samples fall back
// to the median.
func tail(xs []float64) (value, pct float64) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(100-p)/100 >= 10 {
			return percentile(xs, p), p
		}
	}
	return median(xs), 50
}

// rates collects the throughput of each timed pass; the reported rates are
// the median pass's, so one pass slowed by the host does not move them.
type rates struct{ points, insts, cycles []float64 }

func (x *rates) add(points int, warpInsts, cycles, secs float64) {
	x.points = append(x.points, float64(points)/secs)
	x.insts = append(x.insts, warpInsts/secs)
	x.cycles = append(x.cycles, cycles/secs)
}

func (x *rates) set(r *report) {
	r.set("points_per_s", median(x.points))
	r.set("warp_insts_per_s", median(x.insts))
	r.set("sim_cycles_per_s", median(x.cycles))
}

// setSetup reports setup_s, the median of the run's set-ups.
func (r *report) setSetup(setups []float64) {
	r.set("setup_s", median(setups))
	r.note("setup_s is the median of %d set-ups (min %.4f s, max %.4f s)", len(setups), sorted(setups)[0], sorted(setups)[len(setups)-1])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB reads the process's resident-memory high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
