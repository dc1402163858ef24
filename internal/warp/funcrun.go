package warp

import (
	"fmt"

	"gscalar/internal/isa"
	"gscalar/internal/kernel"
)

// BuildCTA constructs the warps of one CTA, with thread coordinates and CTA
// coordinates filled in. ctaLinear is the CTA's linear index in the grid.
func BuildCTA(prog *kernel.Program, lc *kernel.LaunchConfig, ctaLinear, warpWidth, globalWarpBase int) []*Warp {
	return BuildCTAStored(prog, lc, ctaLinear, warpWidth, globalWarpBase, nil)
}

// BuildCTAStored is BuildCTA with lane storage drawn from alloc (e.g. a
// regfile arena's Alloc): each warp receives one StorageWords-sized zeroed
// chunk. A nil alloc self-allocates per warp.
func BuildCTAStored(prog *kernel.Program, lc *kernel.LaunchConfig, ctaLinear, warpWidth, globalWarpBase int, alloc func(words int) []uint32) []*Warp {
	threads := lc.Block.Count()
	nwarps := (threads + warpWidth - 1) / warpWidth
	ctaX := uint32(ctaLinear % lc.Grid.X)
	ctaY := uint32(ctaLinear / lc.Grid.X)

	warps := make([]*Warp, nwarps)
	for wi := 0; wi < nwarps; wi++ {
		lanes := warpWidth
		if rem := threads - wi*warpWidth; rem < lanes {
			lanes = rem
		}
		var store []uint32
		if alloc != nil {
			store = alloc(StorageWords(prog.NumRegs, warpWidth))
		}
		w := NewStored(globalWarpBase+wi, ctaLinear, wi, warpWidth, prog.NumRegs, FullMask(lanes), store)
		w.SetCTACoords(ctaX, ctaY)
		for lane := 0; lane < lanes; lane++ {
			t := wi*warpWidth + lane
			w.SetThreadCoords(lane, uint32(t%lc.Block.X), uint32(t/lc.Block.X))
		}
		warps[wi] = w
	}
	return warps
}

// FuncRunResult summarises a functional (untimed) execution.
type FuncRunResult struct {
	WarpInsts      uint64 // dynamic warp-instructions executed
	ThreadInsts    uint64 // dynamic thread-instructions (sum of active lanes)
	DivergentInsts uint64
}

// FuncRun executes the whole launch functionally, CTA by CTA, interleaving
// the warps of a CTA round-robin so barriers work. It is the golden model
// the timed simulator is checked against. maxInsts bounds runaway kernels
// (0 means a large default).
func FuncRun(prog *kernel.Program, lc *kernel.LaunchConfig, mem *kernel.Memory, warpWidth int, maxInsts uint64) (FuncRunResult, error) {
	return FuncRunObserved(prog, lc, mem, warpWidth, maxInsts, Observer{})
}

// Observer watches a functional run one dynamic warp instruction at a time.
// Either hook may be nil.
type Observer struct {
	// Before sees the warp just before it executes in under the active mask
	// (guard applied): its registers still hold the instruction's sources.
	Before func(w *Warp, in *isa.Instruction, active Mask)
	// After sees the executed instruction's Outcome. Returning false ends
	// the whole run early, without an error.
	After func(cta int, w *Warp, out *Outcome) bool
}

// FuncRunObserved is FuncRun with obs called around every instruction. The
// profiler, the tracer and the compile-time ablation are observers on this
// one loop, so every functional metric comes from the golden model.
func FuncRunObserved(prog *kernel.Program, lc *kernel.LaunchConfig, mem *kernel.Memory, warpWidth int, maxInsts uint64, obs Observer) (FuncRunResult, error) {
	var res FuncRunResult
	if maxInsts == 0 {
		maxInsts = 1 << 32
	}
	nCTAs := lc.Grid.Count()
	for cta := 0; cta < nCTAs; cta++ {
		warps := BuildCTA(prog, lc, cta, warpWidth, 0)
		ctx := &Context{
			Prog:   prog,
			Launch: lc,
			Global: mem,
			Shared: make([]uint32, (lc.SharedBytes+3)/4),
		}
		stopped, err := runCTA(ctx, cta, warps, &res, maxInsts, &obs)
		if err != nil {
			return res, fmt.Errorf("cta %d: %w", cta, err)
		}
		if stopped {
			break
		}
	}
	return res, nil
}

// runCTA runs one CTA to completion; stopped reports that obs.After ended
// the run.
func runCTA(ctx *Context, cta int, warps []*Warp, res *FuncRunResult, maxInsts uint64, obs *Observer) (stopped bool, err error) {
	for {
		progress := false
		allDone := true
		atBarrier := 0
		live := 0
		for _, w := range warps {
			switch w.Status() {
			case StatusDone:
				continue
			case StatusBarrier:
				allDone = false
				atBarrier++
				live++
				continue
			}
			allDone = false
			live++
			// Run the warp until it blocks (barrier) or finishes, to keep
			// the functional model fast; round-robin only matters at
			// barriers.
			for w.Status() == StatusReady {
				if obs.Before != nil {
					if _, in, active, ok := w.Peek(ctx); ok {
						obs.Before(w, in, active)
					}
				}
				out, err := w.Execute(ctx)
				if err != nil {
					return false, err
				}
				res.WarpInsts++
				res.ThreadInsts += uint64(PopCount(out.Active))
				if out.Divergent {
					res.DivergentInsts++
				}
				progress = true
				if obs.After != nil && !obs.After(cta, w, &out) {
					return true, nil
				}
				if res.WarpInsts > maxInsts {
					return false, fmt.Errorf("warp: instruction budget %d exceeded (runaway kernel?)", maxInsts)
				}
			}
		}
		if allDone {
			return false, nil
		}
		// Release barrier when every live warp has arrived.
		if atBarrier == live && atBarrier > 0 {
			for _, w := range warps {
				if w.Status() == StatusBarrier {
					w.ClearBarrier()
				}
			}
			progress = true
		}
		if !progress {
			return false, fmt.Errorf("warp: deadlock — %d/%d warps at barrier", atBarrier, live)
		}
	}
}
