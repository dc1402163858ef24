// Command gsbench is the repository benchmark. One run executes one
// workload in this process, checks every output it produces, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run),
// ending with one JSON result line. See README.md for the workloads and the
// metric → layer → workload table.
//
// Usage, from the repository root:
//
//	bash gsbench/run.sh --workload suite-serial --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gscalar"
	"gscalar/internal/workloads"
)

// env is everything one workload run needs.
type env struct {
	workload string
	seed     uint64
	seconds  int
	root     string // repository root
	out      string // scratch directory for stores and span files
	r        *report
	digests  digestTable
}

var workloadRuns = map[string]func(*env) error{
	"suite-serial":  func(e *env) error { return runSuite(e, false) },
	"suite-relaxed": func(e *env) error { return runSuite(e, true) },
	"paper-sweep":   runPaperSweep,
	"serve-sweep":   runServeSweep,
}

// suiteArchs are the architectures of the suite and serve workloads.
var suiteArchs = []gscalar.Arch{gscalar.Baseline, gscalar.GScalar}

// relaxedConfig is Table 1 on the relaxed epoch loop (default epoch) with
// two workers.
func relaxedConfig() gscalar.Config {
	cfg := gscalar.DefaultConfig()
	cfg.Relaxed = true
	cfg.Workers = 2
	return cfg
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 7

func main() {
	os.Exit(run())
}

func run() int {
	var e env
	flag.StringVar(&e.workload, "workload", "", "workload: suite-serial, suite-relaxed, paper-sweep or serve-sweep")
	flag.Uint64Var(&e.seed, "seed", 1, "workload seed: sets the gen: seed= dials and the submission order")
	flag.IntVar(&e.seconds, "seconds", 20, "nominal measuring time; sets the number of passes")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&e.root, "root", ".", "repository root")
	flag.StringVar(&e.out, "out", ".bench_build", "scratch directory for temporary stores and span files")
	digestsFlag := flag.Bool("write-digests", false, "re-simulate every builtin point, rewrite gsbench/digests.json and exit")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	if *digestsFlag {
		if err := writeDigests(e.root); err != nil {
			fmt.Fprintln(os.Stderr, "gsbench:", err)
			return 1
		}
		return 0
	}
	runWorkload, ok := workloadRuns[e.workload]
	if !ok || e.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "gsbench: need --workload (suite-serial, suite-relaxed, paper-sweep, serve-sweep), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	var err error
	if e.digests, err = loadDigests(e.root); err != nil {
		fmt.Fprintln(os.Stderr, "gsbench:", err)
		return 1
	}
	e.r = newReport(*traceFlag == 1)
	e.r.note("host: cpu=%q nproc=%d gomaxprocs=%d go=%s", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	e.r.note("workload=%s seed=%d seconds=%d trace=%d", e.workload, e.seed, e.seconds, *traceFlag)
	if err := runWorkload(&e); err != nil {
		fmt.Fprintln(os.Stderr, "gsbench:", err)
		return 1
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsbench:", err)
		return 1
	}
	e.r.set("peak_rss_mb", rss)
	if tr := e.r.tr; tr != nil {
		tr.finish(e.r)
		path := filepath.Join(e.out, "gsbench-spans", fmt.Sprintf("%s-seed%d.json", e.workload, e.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "gsbench:", err)
			return 1
		}
		e.r.note("spans: %s", path)
	}
	if err := e.r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gsbench:", err)
		return 1
	}
	return 0
}

// finish folds the recorded spans into the per-layer self-time metrics.
func (t *tracer) finish(r *report) {
	for layer, s := range t.selfSeconds() {
		r.set("self_s."+layer, s)
	}
	r.set("trace.spans", float64(t.count()))
}

// passes converts the nominal measuring time into a fixed number of passes,
// so the sample count — and with it the tail percentile — depends only on
// --seconds, never on how fast this host happens to be.
func passes(seconds int, nominalPass float64, min int) int {
	n := int(math.Round(float64(seconds) / nominalPass))
	if n < min {
		n = min
	}
	return n
}

// shuffled returns a seeded permutation of 0..n-1; salt separates the
// orders of different passes.
func shuffled(seed uint64, salt, n int) []int {
	return rand.New(rand.NewSource(int64(seed*1_000_003 + uint64(salt)))).Perm(n)
}

// buildAll resolves and builds every spec once, as set-up does, and returns
// the per-spec build times in milliseconds.
func buildAll(r *report, specs []string) ([]float64, error) {
	out := make([]float64, 0, len(specs))
	for _, spec := range specs {
		sp := r.tr.start("workloads.Build", 0, 0)
		t := time.Now()
		src, err := workloads.Resolve(spec)
		if err != nil {
			return nil, err
		}
		if _, err := src.Build(1); err != nil {
			return nil, fmt.Errorf("building %s: %w", spec, err)
		}
		out = append(out, ms(time.Since(t)))
		r.tr.end(sp)
	}
	return out, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
