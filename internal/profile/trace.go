package profile

import (
	"fmt"
	"io"

	"gscalar/internal/kernel"
	"gscalar/internal/warp"
)

// Trace functionally executes the launch (warp.FuncRun), writing one line
// per dynamic warp instruction to w:
//
//	cta warp pc | active-mask | instruction | dst=value(s)
//
// Uniform destination vectors print once; non-uniform ones print the first
// few lanes. The trace stops after maxEvents lines (0 = 10000). Trace is the
// instruction-level companion to the aggregate profiler and is intended for
// debugging kernels and the simulator itself.
func Trace(out io.Writer, prog *kernel.Program, lc *kernel.LaunchConfig, mem *kernel.Memory, maxEvents int) error {
	if maxEvents == 0 {
		maxEvents = 10000
	}
	events := 0
	_, err := warp.FuncRunObserved(prog, lc, mem, 32, 0, warp.Observer{
		After: func(cta int, w *warp.Warp, o *warp.Outcome) bool {
			writeEvent(out, cta, w, o)
			if events++; events >= maxEvents {
				fmt.Fprintf(out, "... trace truncated at %d events\n", maxEvents)
				return false
			}
			return true
		},
	})
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	return nil
}

func writeEvent(out io.Writer, cta int, w *warp.Warp, o *warp.Outcome) {
	div := " "
	if o.Divergent {
		div = "D"
	}
	fmt.Fprintf(out, "cta%-3d w%-2d pc%-4d %s %s  ", cta, w.ID, o.PC, div, maskBrief(o.Active, w.Width))
	if o.DstReg >= 0 {
		fmt.Fprintf(out, "%-30s  r%d=%s\n", o.Inst.String(), o.DstReg, vecBrief(o.DstVec, o.Active))
	} else {
		fmt.Fprintln(out, o.Inst.String())
	}
}

// maskBrief renders an active mask compactly: "full", a count, or hex.
func maskBrief(m warp.Mask, width int) string {
	if m == warp.FullMask(width) {
		return "[full]"
	}
	return fmt.Sprintf("[%2d/%d %0*x]", warp.PopCount(m), width, (width+3)/4, m)
}

// vecBrief renders a destination vector: a single value if uniform over the
// active lanes, else the first active lanes.
func vecBrief(vec []uint32, active warp.Mask) string {
	var first uint32
	uniform := true
	n := 0
	for lane := 0; lane < len(vec); lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		if n == 0 {
			first = vec[lane]
		} else if vec[lane] != first {
			uniform = false
		}
		n++
	}
	if n == 0 {
		return "(no lanes)"
	}
	if uniform {
		return fmt.Sprintf("%#x (uniform)", first)
	}
	s := ""
	shown := 0
	for lane := 0; lane < len(vec) && shown < 4; lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		if shown > 0 {
			s += ","
		}
		s += fmt.Sprintf("%#x", vec[lane])
		shown++
	}
	return s + ",..."
}
