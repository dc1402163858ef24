package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"gscalar"
)

// pointKind is one (architecture, variant) pair an experiment simulates on
// every workload of the suite.
type pointKind struct {
	arch    gscalar.Arch
	variant Variant
}

// expPoints maps each experiment name to the point kinds its rendering
// reads. Experiments absent from the map simulate no points: the static
// tables, and width, whose synthetic-kernel runs are not workload points.
var expPoints = map[string][]pointKind{
	"fig1":       {{gscalar.GScalar, ""}},
	"fig8":       {{gscalar.GScalar, ""}},
	"fig9":       {{gscalar.GScalar, ""}},
	"fig10":      {{gscalar.GScalar, Warp32}, {gscalar.GScalar, Warp64}},
	"fig11":      {{gscalar.Baseline, ""}, {gscalar.ALUScalar, ""}, {gscalar.GScalarNoDiv, ""}, {gscalar.GScalar, ""}},
	"fig12":      {{gscalar.Baseline, ""}, {gscalar.ALUScalar, ""}, {gscalar.WarpedCompression, ""}, {gscalar.RVCOnly, ""}},
	"moves":      {{gscalar.GScalar, ""}, {gscalar.GScalar, MoveElision}},
	"compiler":   {{gscalar.GScalar, ""}},
	"half":       {{gscalar.Baseline, ""}, {gscalar.GScalar, ""}, {gscalar.GScalar, NoHalf}},
	"scalarbank": {{gscalar.Baseline, ""}, {gscalar.ALUScalar, ""}, {gscalar.GScalar, ""}},
	"sched":      {{gscalar.GScalar, ""}, {gscalar.GScalar, LRR}},
}

// experimentNames is the registry of every runnable experiment, in
// presentation order: the static tables, the figures, and the ablations.
// It is the single list Points and the CLI validate -exp names against.
var experimentNames = []string{
	"table1", "table2", "table3",
	"fig1", "fig8", "fig9", "fig10", "fig11", "fig12",
	"moves", "compiler", "half", "scalarbank", "width", "sched",
}

// ExperimentNames lists every valid experiment name (excluding the "all"
// pseudo-name, which expands to all of them).
func ExperimentNames() []string {
	out := make([]string, len(experimentNames))
	copy(out, experimentNames)
	return out
}

// ValidExperiment reports whether name is a runnable experiment ("all"
// included).
func ValidExperiment(name string) bool {
	if name == "all" {
		return true
	}
	for _, n := range experimentNames {
		if n == name {
			return true
		}
	}
	return false
}

// errUnknownExperiment builds the error both Points and the CLIs report for
// a name that is not in the registry, listing what would have been valid —
// a typo'd experiment must fail loudly, not silently prewarm (or render)
// nothing.
func errUnknownExperiment(name string) error {
	return fmt.Errorf("experiments: unknown experiment %q (valid: all, %s)",
		name, strings.Join(experimentNames, ", "))
}

// Points returns the deduplicated points the named experiments simulate, in
// a deterministic order: architecture in presentation order, public point
// before its variants, then the suite's workload order. The name "all"
// expands to every experiment. A name outside the experiment registry is an
// error naming the valid choices; registered experiments that simulate no
// points (the static tables, width) are valid and contribute none.
func (s *Suite) Points(exps []string) ([]Point, error) {
	set := map[pointKind]bool{}
	for _, e := range exps {
		if !ValidExperiment(e) {
			return nil, errUnknownExperiment(e)
		}
		names := []string{e}
		if e == "all" {
			names = experimentNames
		}
		for _, n := range names {
			for _, k := range expPoints[n] {
				k.variant = s.canonical(Point{Arch: k.arch, Variant: k.variant}).Variant
				set[k] = true
			}
		}
	}
	kinds := make([]pointKind, 0, len(set))
	for k := range set {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if kinds[i].arch != kinds[j].arch {
			return kinds[i].arch < kinds[j].arch
		}
		return kinds[i].variant < kinds[j].variant
	})

	var pts []Point
	for _, k := range kinds {
		for _, abbr := range s.o.Workloads {
			pts = append(pts, Point{Arch: k.arch, Abbr: abbr, Variant: k.variant})
		}
	}
	return pts, nil
}

// Prewarm simulates the given points under the suite's own context; see
// PrewarmContext.
func (s *Suite) Prewarm(points []Point, par int) error {
	return s.PrewarmContext(s.ctx, points, par)
}

// PrewarmContext simulates the given points concurrently, at most par at a
// time, filling the suite's memo. Figures rendered afterwards are served
// entirely from the memo, so their output is byte-identical to a
// serial run — prewarming only changes when the simulations happen, never
// what they produce (every chip loop is deterministic, and each
// point is independent). With par <= 1 the points run serially in order.
//
// The fan-out is fail-fast: the first failure — or a cancellation of ctx,
// e.g. by a SIGINT handler — cancels the sibling runs at their next
// lifecycle checkpoint, and points not yet started are skipped. The error
// returned is the first genuine failure in point order; if every recorded
// error is just the propagated cancellation, the first of those is returned.
// Cancellation never corrupts the memo: points that completed before it
// remain memoized and reusable.
func (s *Suite) PrewarmContext(ctx context.Context, points []Point, par int) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if par <= 1 || len(points) <= 1 {
		for _, p := range points {
			if _, err := s.run(ctx, p); err != nil {
				return err
			}
		}
		return nil
	}
	if par > len(points) {
		par = len(points)
	}
	errs := make([]error, len(points))
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				_, errs[i] = s.run(ctx, points[i])
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	for i := range points {
		idx <- i
	}
	close(idx)
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return first
}
