package gscalar_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"gscalar"
)

// cancelledRun executes workload abbr under cfg with an observer that
// cancels the context at the first lifecycle checkpoint at or past cancelAt
// simulated cycles, returning the partial result.
func cancelledRun(t *testing.T, cfg gscalar.Config, abbr string, cancelAt uint64) gscalar.Result {
	t.Helper()
	s, err := gscalar.NewSession(cfg, gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.ObserverStride = 64
	s.Observer = func(p gscalar.Progress) {
		if p.Cycle >= cancelAt {
			cancel()
		}
	}
	res, err := s.RunWorkload(ctx, abbr, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("relaxed=%v: err = %v, want context.Canceled", cfg.Relaxed, err)
	}
	if !strings.Contains(err.Error(), abbr) || !strings.Contains(err.Error(), "gscalar") {
		t.Errorf("relaxed=%v: error %q lacks workload/architecture context", cfg.Relaxed, err)
	}
	return res
}

// TestCancellationDeterminism cancels the same run at the same simulated
// cycle twice — under both the serial loop and the relaxed loop with eight
// workers — and requires bit-identical partial results. The cut point is
// defined by an observer in simulated time, so it does not depend on host
// timing.
func TestCancellationDeterminism(t *testing.T) {
	const abbr = "HS"
	for _, relaxed := range []bool{false, true} {
		cfg := gscalar.DefaultConfig()
		if relaxed {
			cfg.Relaxed, cfg.Workers = true, 8
		}
		full, err := runWorkloadVia(t, cfg, gscalar.GScalar, abbr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if full.Cycles < 256 {
			t.Fatalf("%s too short to cancel mid-run (%d cycles)", abbr, full.Cycles)
		}
		cancelAt := full.Cycles / 2

		a := cancelledRun(t, cfg, abbr, cancelAt)
		b := cancelledRun(t, cfg, abbr, cancelAt)
		if a.Cycles == 0 || a.Cycles >= full.Cycles {
			t.Errorf("relaxed=%v: partial run spans %d cycles, full run %d", relaxed, a.Cycles, full.Cycles)
		}
		if a.PowerW <= 0 || a.EnergyJ <= 0 {
			t.Errorf("relaxed=%v: partial power not finalized: %f W, %f J", relaxed, a.PowerW, a.EnergyJ)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("relaxed=%v: cancelling at cycle %d twice gave different partial results:\n%+v\nvs\n%+v",
				relaxed, cancelAt, a, b)
		}
	}
}

// TestDeadlinePropagates checks that a context deadline aborts a run with
// DeadlineExceeded visible through the session's error wrapping.
func TestDeadlinePropagates(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	s, err := gscalar.NewSession(gscalar.DefaultConfig(), gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWorkload(ctx, "HS", 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res.Cycles != 0 {
		t.Errorf("expired-deadline run simulated %d cycles", res.Cycles)
	}
}

// TestCancelledSweep checks that cancellation propagates out of the
// warp-size sweep with its point context attached.
func TestCancelledSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := gscalar.NewSession(gscalar.DefaultConfig(), gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.WarpSizeSweep(ctx, "HS", []int{32, 64}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "warp-size sweep") {
		t.Errorf("error %q lacks sweep context", err)
	}
}
