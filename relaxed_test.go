package gscalar_test

import (
	"math"
	"reflect"
	"testing"

	"gscalar"
)

// The relaxed epoch-parallel loop trades bit-identity for scalability: SMs
// advance up to EpochCycles cycles on estimated memory latencies and the
// shared L2/DRAM state commits only at epoch boundaries. These constants are
// the documented accuracy envelope of that trade, measured against the
// serial oracle across the full 17-workload Table 2 suite on both
// architectures (see docs/architecture.md). TestRelaxedAccuracyEnvelope
// enforces them; tightening a bound requires re-measuring the suite,
// loosening one requires understanding what regressed.
const (
	// relaxedCycleBoundPct bounds |cycles_relaxed - cycles_serial| as a
	// percentage of the serial cycle count. Measured worst case at epoch 64
	// across the 34-point sweep is 5.5% (MM/baseline); 6% leaves a little
	// headroom without masking a real regression.
	relaxedCycleBoundPct = 6.0

	// relaxedCycleFloorCycles is the absolute slack that applies alongside
	// the relative bound: a delta within the floor passes even when the
	// percentage does not. Epoch-granularity error — over-estimated
	// latencies for lines that another SM would have warmed in L2 within
	// the same epoch — is a handful of epochs' worth of cycles regardless
	// of run length, so on short kernels it dominates the relative view
	// (worst case ST/gscalar: +322 cycles on a 2431-cycle run, 13%).
	relaxedCycleFloorCycles = 400

	// relaxedDRAMBoundPct bounds the DRAM-transaction delta relative to
	// serial. Deferring commits shifts which accesses coalesce in L2 but
	// must not change traffic materially; measured worst case is 2.2% (MV).
	relaxedDRAMBoundPct = 3.0
)

// pctDelta returns |a-b| as a percentage of b (the oracle side).
func pctDelta(a, b uint64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(float64(a)-float64(b)) / float64(b) * 100
}

// runRelaxedWorkload simulates one workload on the relaxed loop.
func runRelaxedWorkload(t testing.TB, arch gscalar.Arch, abbr string, workers, epoch int) gscalar.Result {
	t.Helper()
	cfg := gscalar.DefaultConfig()
	cfg.Relaxed = true
	cfg.Workers = workers
	cfg.EpochCycles = epoch
	res, err := runWorkloadVia(t, cfg, arch, abbr, 1)
	if err != nil {
		t.Fatalf("%s on %s (relaxed, workers=%d, epoch=%d): %v", abbr, arch, workers, epoch, err)
	}
	return res
}

// TestRelaxedAccuracyEnvelope is the differential oracle for the relaxed
// epoch-parallel loop: every Table 2 workload runs on the serial loop and on
// the relaxed loop (epoch 64, the default), and the relaxed result must stay
// inside the documented envelope:
//
//   - instruction counts (WarpInsts, ThreadInsts, MoveOverhead) exactly
//     equal — relaxation perturbs timing, never the executed program;
//   - the RF access distribution, scalar-eligibility breakdown, divergence
//     fractions and compression ratio exactly equal, for the same reason
//     (they classify instructions by operand values, not by cycle);
//   - cycles within relaxedCycleBoundPct of serial (or within the absolute
//     relaxedCycleFloorCycles slack on short kernels) and DRAM transactions
//     within relaxedDRAMBoundPct.
//
// In short mode a 3-workload subset runs on GScalar only; the full
// 17-workload × 2-architecture sweep runs without -short.
func TestRelaxedAccuracyEnvelope(t *testing.T) {
	workloadSet := gscalar.Workloads()
	archs := []gscalar.Arch{gscalar.Baseline, gscalar.GScalar}
	if testing.Short() {
		workloadSet = []string{"HS", "MQ", "SAD"}
		archs = archs[1:]
	}
	for _, arch := range archs {
		for _, abbr := range workloadSet {
			serial := runDet(t, arch, abbr)
			relaxed := runRelaxedWorkload(t, arch, abbr, 4, 64)

			if relaxed.ExecMode != "relaxed" {
				t.Fatalf("%s/%s: ExecMode = %q, want relaxed", abbr, arch, relaxed.ExecMode)
			}

			if relaxed.WarpInsts != serial.WarpInsts || relaxed.ThreadInsts != serial.ThreadInsts {
				t.Errorf("%s/%s: instruction counts diverged: warp %d vs %d, thread %d vs %d",
					abbr, arch, relaxed.WarpInsts, serial.WarpInsts,
					relaxed.ThreadInsts, serial.ThreadInsts)
			}
			if relaxed.MoveOverhead != serial.MoveOverhead {
				t.Errorf("%s/%s: move overhead %v vs %v", abbr, arch,
					relaxed.MoveOverhead, serial.MoveOverhead)
			}
			if !reflect.DeepEqual(relaxed.RFAccess, serial.RFAccess) {
				t.Errorf("%s/%s: RF access distribution diverged:\n%+v\nvs serial\n%+v",
					abbr, arch, relaxed.RFAccess, serial.RFAccess)
			}
			if !reflect.DeepEqual(relaxed.Eligibility, serial.Eligibility) {
				t.Errorf("%s/%s: eligibility breakdown diverged:\n%+v\nvs serial\n%+v",
					abbr, arch, relaxed.Eligibility, serial.Eligibility)
			}
			if relaxed.FracDivergent != serial.FracDivergent ||
				relaxed.FracDivergentScalar != serial.FracDivergentScalar {
				t.Errorf("%s/%s: divergence fractions diverged", abbr, arch)
			}
			if relaxed.CompressionRatio != serial.CompressionRatio {
				t.Errorf("%s/%s: compression ratio %v vs %v", abbr, arch,
					relaxed.CompressionRatio, serial.CompressionRatio)
			}

			cycleDelta := pctDelta(relaxed.Cycles, serial.Cycles)
			absDelta := math.Abs(float64(relaxed.Cycles) - float64(serial.Cycles))
			dramDelta := pctDelta(relaxed.DRAMTransactions, serial.DRAMTransactions)
			t.Logf("%s/%s: cycles %d vs %d (%.2f%%), DRAM %d vs %d (%.2f%%)",
				abbr, arch, relaxed.Cycles, serial.Cycles, cycleDelta,
				relaxed.DRAMTransactions, serial.DRAMTransactions, dramDelta)
			if cycleDelta > relaxedCycleBoundPct && absDelta > relaxedCycleFloorCycles {
				t.Errorf("%s/%s: cycle delta %.2f%% exceeds the documented %.1f%% bound (relaxed %d vs serial %d)",
					abbr, arch, cycleDelta, relaxedCycleBoundPct, relaxed.Cycles, serial.Cycles)
			}
			if dramDelta > relaxedDRAMBoundPct {
				t.Errorf("%s/%s: DRAM delta %.2f%% exceeds the documented %.1f%% bound (relaxed %d vs serial %d)",
					abbr, arch, dramDelta, relaxedDRAMBoundPct,
					relaxed.DRAMTransactions, serial.DRAMTransactions)
			}
		}
	}
}

// TestRelaxedDeterminism pins the reproducibility contract of the relaxed
// loop: for a fixed (EpochCycles, workload) point the simulated Result is
// identical across repeated runs and across every worker count — worker
// count is pure execution parallelism, only the epoch length is a model
// parameter. (Startup-order independence of the worker pool itself is
// covered at the internal/gpu level, where the launch-order hook lives.)
func TestRelaxedDeterminism(t *testing.T) {
	workloads := []string{"HS", "PF"}
	epochs := []int{64, 256}
	if testing.Short() {
		workloads = workloads[:1]
		epochs = epochs[:1]
	}
	for _, abbr := range workloads {
		for _, epoch := range epochs {
			ref := runRelaxedWorkload(t, gscalar.GScalar, abbr, 1, epoch)
			for _, workers := range []int{2, 8} {
				got := runRelaxedWorkload(t, gscalar.GScalar, abbr, workers, epoch)
				if !reflect.DeepEqual(stripExecMeta(ref), stripExecMeta(got)) {
					t.Errorf("%s epoch=%d: workers=%d differs from workers=1:\n%+v\nvs\n%+v",
						abbr, epoch, workers, got, ref)
				}
			}
			again := runRelaxedWorkload(t, gscalar.GScalar, abbr, 8, epoch)
			repeat := runRelaxedWorkload(t, gscalar.GScalar, abbr, 8, epoch)
			if !reflect.DeepEqual(again, repeat) {
				t.Errorf("%s epoch=%d: repeated 8-worker runs differ", abbr, epoch)
			}
		}
	}
}

// TestRelaxedEpochSensitivity documents that the epoch length IS a model
// parameter: it may (and for memory-bound workloads does) move the cycle
// count, but every executed-program statistic stays pinned, and longer
// epochs stay inside the same documented envelope.
func TestRelaxedEpochSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("documentation sweep; the short envelope subset already drives the relaxed loop")
	}
	const abbr = "LBM"
	serial := runDet(t, gscalar.GScalar, abbr)
	for _, epoch := range []int{64, 256, 1024} {
		relaxed := runRelaxedWorkload(t, gscalar.GScalar, abbr, 4, epoch)
		if relaxed.WarpInsts != serial.WarpInsts {
			t.Errorf("epoch=%d: warp insts %d vs serial %d", epoch, relaxed.WarpInsts, serial.WarpInsts)
		}
		cycleDelta := pctDelta(relaxed.Cycles, serial.Cycles)
		absDelta := math.Abs(float64(relaxed.Cycles) - float64(serial.Cycles))
		t.Logf("%s epoch=%d: cycles %d vs serial %d (%.2f%%)", abbr, epoch,
			relaxed.Cycles, serial.Cycles, cycleDelta)
		if cycleDelta > relaxedCycleBoundPct && absDelta > relaxedCycleFloorCycles {
			t.Errorf("epoch=%d: cycle delta %.2f%% exceeds the documented %.1f%% bound",
				epoch, cycleDelta, relaxedCycleBoundPct)
		}
	}
}
