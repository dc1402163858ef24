package gpu

import (
	"reflect"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/sm"
)

// chipLoop names one chip-loop setting; epoch 0 is the serial loop.
type chipLoop struct {
	name           string
	epoch, workers int
}

// loops are the chip loops the skip tests drive: serial, and relaxed with
// several workers.
var loops = []chipLoop{{"serial", 0, 0}, {"relaxed", 64, 4}}

// runSkipPair runs the same launch with idle skipping on and off. On the
// serial loop it requires bit-identical Results (cycles, every statistic,
// exact energy). On the relaxed loop a chip-wide skip also moves the epoch
// grid, so timing may legitimately differ; there it requires the executed
// program (warp instructions) and the functional output to match. Both
// loops compare final device memory. It returns the skip-enabled result.
func runSkipPair(t *testing.T, src string, l chipLoop, numSMs int,
	setup func(m *kernel.Memory, lc *kernel.LaunchConfig)) Result {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(disable bool) (Result, []uint32) {
		mem := kernel.NewMemory()
		lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 8, Y: 1}, Block: kernel.Dim{X: 128, Y: 1}}
		if setup != nil {
			setup(mem, lc)
		}
		cfg := DefaultConfig()
		cfg.NumSMs = numSMs
		cfg.MaxCycles = 2_000_000
		cfg.EpochCycles = l.epoch
		cfg.Workers = l.workers
		cfg.DisableIdleSkip = disable
		res, err := Run(cfg, sm.GScalar(), prog, lc, mem)
		if err != nil {
			t.Fatalf("%s noskip=%v: %v", l.name, disable, err)
		}
		// Fingerprint device memory so functional output is compared too.
		return res, mem.ReadU32(256, 4096)
	}
	skip, skipMem := run(false)
	noskip, noskipMem := run(true)
	if l.epoch > 0 {
		if skip.Stats.WarpInsts != noskip.Stats.WarpInsts {
			t.Errorf("%s: warp insts differ: skip=%d noskip=%d", l.name, skip.Stats.WarpInsts, noskip.Stats.WarpInsts)
		}
	} else if !reflect.DeepEqual(skip, noskip) {
		t.Errorf("%s: results differ:\nskip:   %+v\nnoskip: %+v", l.name, skip, noskip)
	}
	if !reflect.DeepEqual(skipMem, noskipMem) {
		t.Errorf("%s: device memory differs between skip and noskip runs", l.name)
	}
	return skip
}

// TestSkipBarrierOnlyStall covers the barrier boundary case: warps park at
// bar.sync while their pre-barrier loads are still in flight, so entire SMs
// sit with zero ready warps and only writeback events pending — exactly the
// state idle skipping fast-forwards over. The barrier release must still
// happen on the correct cycle (it is triggered by the last arrival or a
// writeback-unblocked issue, never by an idle cycle).
func TestSkipBarrierOnlyStall(t *testing.T) {
	src := `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl r3, r2, 2
	shl r11, r1, 2
	iadd r4, $0, r3
	ldg r5, [r4]
	sts [r11], r5
	bar
	mov r6, %ntid.x
	isub r7, r6, r1
	isub r7, r7, 1
	shl r8, r7, 2
	lds r9, [r8]
	iadd r10, $1, r3
	stg [r10], r9
	exit
`
	for _, l := range loops {
		runSkipPair(t, src, l, 2, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
			lc.SharedBytes = 128 * 4
			vals := make([]uint32, 8*128)
			for i := range vals {
				vals[i] = uint32(i * 3)
			}
			lc.Params[0] = m.AllocU32(vals)
			lc.Params[1] = m.Alloc(8 * 128 * 4)
		})
	}
}

// TestSkipMixedDoneAndStalled covers a CTA whose warps finish at wildly
// different times: low warps exit almost immediately while high warps chase
// long dependent-load chains. The SM spends long stretches with done warps,
// no ready warps, and in-flight loads — skippable — but the done warps'
// retirement bookkeeping (CTA release, barrier accounting) must be
// unaffected by the jumps.
func TestSkipMixedDoneAndStalled(t *testing.T) {
	src := `
	mov r1, %tid.x
	isetp.lt p0, r1, 64
	@p0 exit
	imad r2, %ctaid.x, %ntid.x, r1
	shl r3, r2, 7
	iadd r4, $0, r3
	ldg r5, [r4]
	and r6, r5, 4095
	shl r6, r6, 2
	iadd r6, $0, r6
	ldg r7, [r6]
	iadd r8, r5, r7
	shl r9, r2, 2
	iadd r10, $1, r9
	stg [r10], r8
	exit
`
	for _, l := range loops {
		runSkipPair(t, src, l, 2, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
			vals := make([]uint32, 8*128*32)
			for i := range vals {
				vals[i] = uint32(i * 7)
			}
			lc.Params[0] = m.AllocU32(vals)
			lc.Params[1] = m.Alloc(8 * 128 * 4)
		})
	}
}

// TestSkipIdleSMWithPendingCTAs covers the dispatcher boundary case: a
// one-SM chip with far more CTAs than residency, where the SM repeatedly
// drains to idle on the same cycle the dispatcher would refill it. The skip
// check runs after dispatch, so a refilled SM is unskippable; a bug that
// skipped over the refill would show up as a cycle-count difference.
func TestSkipIdleSMWithPendingCTAs(t *testing.T) {
	src := `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl r3, r2, 2
	iadd r4, $0, r3
	ldg r5, [r4]
	iadd r5, r5, 1
	iadd r6, $1, r3
	stg [r6], r5
	exit
`
	for _, l := range loops {
		runSkipPair(t, src, l, 1, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
			lc.Grid = kernel.Dim{X: 24, Y: 1}
			lc.Block = kernel.Dim{X: 32, Y: 1}
			vals := make([]uint32, 24*32)
			for i := range vals {
				vals[i] = uint32(i)
			}
			lc.Params[0] = m.AllocU32(vals)
			lc.Params[1] = m.Alloc(24 * 32 * 4)
		})
	}
}

// TestSkipMaxCyclesMidSkip covers the abort boundary case: the bound
// expires while every SM is quiescent waiting on a DRAM access that
// completes after MaxCycles. The skip path must report the exact error the
// cycle-by-cycle loop reports, not jump past the bound.
func TestSkipMaxCyclesMidSkip(t *testing.T) {
	src := `
	mov r1, %tid.x
	shl r2, r1, 2
	iadd r3, $0, r2
	ldg r4, [r3]
	stg [r3], r4
	exit
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range loops {
		errs := make([]string, 2)
		for i, disable := range []bool{false, true} {
			mem := kernel.NewMemory()
			lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 32, Y: 1}}
			lc.Params[0] = mem.Alloc(32 * 4)
			cfg := DefaultConfig()
			cfg.NumSMs = 1
			// A DRAM round trip costs hundreds of cycles; the load issues
			// within the first ~30, so the bound trips while the SM is
			// quiescent mid-flight.
			cfg.MaxCycles = 50
			cfg.EpochCycles = l.epoch
			cfg.Workers = l.workers
			cfg.DisableIdleSkip = disable
			_, err := Run(cfg, sm.GScalar(), prog, lc, mem)
			if err == nil {
				t.Fatalf("%s noskip=%v: expected MaxCycles error, got success", l.name, disable)
			}
			errs[i] = err.Error()
		}
		if errs[0] != errs[1] {
			t.Errorf("%s: error text differs:\nskip:   %s\nnoskip: %s", l.name, errs[0], errs[1])
		}
	}
}
