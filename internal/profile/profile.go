// Package profile provides a functional (untimed) kernel profiler: per-PC
// dynamic execution counts, lane-activity, value-uniformity sampling and
// static classification, rendered as an annotated listing. It is the
// debugging companion to the timing simulator — fast enough to run on every
// kernel iteration while tuning workloads.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"gscalar/internal/asm"
	"gscalar/internal/core"
	"gscalar/internal/isa"
	"gscalar/internal/kernel"
	"gscalar/internal/warp"
)

// PC aggregates the dynamic behaviour of one static instruction.
type PC struct {
	Execs        uint64 // dynamic executions (warp instructions)
	Lanes        uint64 // sum of active lanes
	Divergent    uint64 // executions with a partial warp
	ValueUniform uint64 // executions whose register sources were value-uniform
}

// Profile is the result of profiling one launch.
type Profile struct {
	Prog        *kernel.Program
	PCs         []PC
	WarpInsts   uint64
	ThreadInsts uint64
	Static      *asm.StaticAnalysis
}

// Run executes the launch on the functional model (warp.FuncRun),
// collecting per-PC statistics. maxInsts bounds runaway kernels (0 = large
// default).
func Run(prog *kernel.Program, lc *kernel.LaunchConfig, mem *kernel.Memory, maxInsts uint64) (*Profile, error) {
	p := &Profile{
		Prog:   prog,
		PCs:    make([]PC, prog.Len()),
		Static: asm.Analyze(prog),
	}
	// The oracle reads the sources before the instruction executes, since
	// its write may alias them.
	uniform := false
	fr, err := warp.FuncRunObserved(prog, lc, mem, 32, maxInsts, warp.Observer{
		Before: func(w *warp.Warp, in *isa.Instruction, active warp.Mask) {
			uniform = in.Class() != isa.ClassCtrl &&
				core.ValueScalarOracle(in, active, w.RegVec)
		},
		After: func(_ int, _ *warp.Warp, out *warp.Outcome) bool {
			rec := &p.PCs[out.PC]
			rec.Execs++
			rec.Lanes += uint64(warp.PopCount(out.Active))
			if out.Divergent {
				rec.Divergent++
			}
			if uniform {
				rec.ValueUniform++
			}
			return true
		},
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p.WarpInsts, p.ThreadInsts = fr.WarpInsts, fr.ThreadInsts
	return p, nil
}

// Hot returns the n most-executed PCs, descending.
func (p *Profile) Hot(n int) []int {
	idx := make([]int, len(p.PCs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.PCs[idx[a]].Execs > p.PCs[idx[b]].Execs })
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}

// Listing renders an annotated assembly listing: execution count, average
// active lanes, divergence and value-uniformity fractions, and the static
// analysis verdict per instruction.
func (p *Profile) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d warp-insts, %d thread-insts\n", p.Prog.Name, p.WarpInsts, p.ThreadInsts)
	fmt.Fprintf(&b, "%5s  %10s  %5s  %5s  %5s  %-6s  %s\n",
		"pc", "execs", "lanes", "div%", "uni%", "static", "instruction")
	for pc := 0; pc < p.Prog.Len(); pc++ {
		rec := p.PCs[pc]
		lanes, div, uni := 0.0, 0.0, 0.0
		if rec.Execs > 0 {
			lanes = float64(rec.Lanes) / float64(rec.Execs)
			div = 100 * float64(rec.Divergent) / float64(rec.Execs)
			uni = 100 * float64(rec.ValueUniform) / float64(rec.Execs)
		}
		static := "-"
		switch {
		case p.Static.UniformInst[pc]:
			static = "unif"
		case p.Static.Divergent[pc]:
			static = "div"
		}
		fmt.Fprintf(&b, "%5d  %10d  %5.1f  %4.0f%%  %4.0f%%  %-6s  %s\n",
			pc, rec.Execs, lanes, div, uni, static, p.Prog.At(pc).String())
	}
	return b.String()
}

// Summary returns aggregate fractions matching the Figure 1/9 metrics.
type Summary struct {
	FracDivergent     float64
	FracValueUniform  float64
	FracStaticUniform float64 // dynamic instructions a compiler could scalarise
}

// Summarise computes the aggregate metrics.
func (p *Profile) Summarise() Summary {
	var div, uni, stat uint64
	for pc, rec := range p.PCs {
		div += rec.Divergent
		uni += rec.ValueUniform
		if p.Static.UniformInst[pc] {
			stat += rec.Execs
		}
	}
	t := float64(p.WarpInsts)
	if t == 0 {
		t = 1
	}
	return Summary{
		FracDivergent:     float64(div) / t,
		FracValueUniform:  float64(uni) / t,
		FracStaticUniform: float64(stat) / t,
	}
}
