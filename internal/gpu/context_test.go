package gpu

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"gscalar/internal/sm"
)

func TestRunContextPreCancelled(t *testing.T) {
	prog, lc, mem, _ := buildSaxpy(t, 256)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, DefaultConfig(), sm.GScalar(), prog, lc, mem)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Cycles != 0 {
		t.Errorf("pre-cancelled run simulated %d cycles", res.Cycles)
	}
}

func TestRunContextExpiredDeadline(t *testing.T) {
	prog, lc, mem, _ := buildSaxpy(t, 256)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := RunContext(ctx, DefaultConfig(), sm.Baseline(), prog, lc, mem)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestObserverDoesNotChangeResults runs with and without a progress observer
// (serial and relaxed loops) and requires bit-identical results, plus sane
// snapshots: strictly increasing cycles, non-decreasing instruction counts,
// and a live-SM count within the chip size.
func TestObserverDoesNotChangeResults(t *testing.T) {
	for _, l := range loops {
		prog, lc, mem, want := buildSaxpy(t, 4096)
		cfg := DefaultConfig()
		cfg.EpochCycles = l.epoch
		cfg.Workers = l.workers
		base, err := Run(cfg, sm.GScalar(), prog, lc, mem)
		if err != nil {
			t.Fatal(err)
		}
		checkSaxpy(t, mem, lc, want)

		prog, lc, mem, _ = buildSaxpy(t, 4096)
		var snaps []Progress
		cfg.ObserverStride = 64
		cfg.Observer = func(p Progress) { snaps = append(snaps, p) }
		res, err := Run(cfg, sm.GScalar(), prog, lc, mem)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("%s: observed run differs from unobserved run", l.name)
		}
		if len(snaps) == 0 {
			t.Fatalf("%s: observer never called over %d cycles", l.name, res.Cycles)
		}
		for i, p := range snaps {
			if i > 0 && p.Cycle <= snaps[i-1].Cycle {
				t.Errorf("%s: snapshot cycles not increasing: %d then %d", l.name, snaps[i-1].Cycle, p.Cycle)
			}
			if i > 0 && p.WarpInsts < snaps[i-1].WarpInsts {
				t.Errorf("%s: retired instructions decreased", l.name)
			}
			if p.LiveSMs < 0 || p.LiveSMs > cfg.NumSMs {
				t.Errorf("%s: LiveSMs = %d with %d SMs", l.name, p.LiveSMs, cfg.NumSMs)
			}
		}
	}
}

// TestCancelMidRunDeterministic cancels the same run at the same simulated
// cycle twice — via an observer, so the cut point is defined in simulated
// time, not wall-clock time — and requires the two partial results to be
// bit-identical, for both the serial and the relaxed loop.
func TestCancelMidRunDeterministic(t *testing.T) {
	for _, l := range loops {
		prog, lc, mem, _ := buildSaxpy(t, 4096)
		cfg := DefaultConfig()
		cfg.EpochCycles = l.epoch
		cfg.Workers = l.workers
		full, err := Run(cfg, sm.GScalar(), prog, lc, mem)
		if err != nil {
			t.Fatal(err)
		}
		if full.Cycles < 128 {
			t.Fatalf("workload too short to cancel mid-run (%d cycles)", full.Cycles)
		}
		cancelAt := full.Cycles / 2

		partial := func() Result {
			prog, lc, mem, _ := buildSaxpy(t, 4096)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c := cfg
			c.ObserverStride = 16
			c.Observer = func(p Progress) {
				if p.Cycle >= cancelAt {
					cancel()
				}
			}
			res, err := RunContext(ctx, c, sm.GScalar(), prog, lc, mem)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", l.name, err)
			}
			return res
		}
		a := partial()
		b := partial()
		if a.Cycles == 0 || a.Cycles >= full.Cycles {
			t.Errorf("%s: partial run spans %d cycles, full run %d", l.name, a.Cycles, full.Cycles)
		}
		if a.Power.AvgPowerW <= 0 {
			t.Errorf("%s: partial run has no finalized power", l.name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: cancelling at cycle %d twice gave different partial results:\n%+v\nvs\n%+v",
				l.name, cancelAt, a, b)
		}
	}
}
