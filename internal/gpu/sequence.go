package gpu

import (
	"context"
	"fmt"

	"gscalar/internal/kernel"
	"gscalar/internal/power"
	"gscalar/internal/sm"
	"gscalar/internal/stats"
)

// Step is one kernel launch of a sequence.
type Step struct {
	Prog   *kernel.Program
	Launch *kernel.LaunchConfig
}

// RunSequenceContext simulates a dependent sequence of kernel launches
// sharing one device memory — the way real applications run (e.g. srad's two
// passes, or an iterative stencil). Launches are serialised by an implicit
// device-level barrier, cycles accumulate across launches, and energy is
// integrated over the whole sequence, so the returned Result is directly
// comparable to a single-launch Run; a single launch is the one-step case.
// ExecMode is the chip loop every launch ran on and Workers the most any
// launch resolved. Cancelling ctx cuts the sequence at the in-flight
// launch's next lifecycle checkpoint; the Result then aggregates every
// completed launch plus the cancelled launch's partial prefix.
func RunSequenceContext(ctx context.Context, cfg Config, arch sm.Arch, gmem *kernel.Memory, steps []Step) (Result, error) {
	if len(steps) == 0 {
		return Result{}, fmt.Errorf("gpu: empty launch sequence")
	}
	maxCycles := cfg.effectiveMaxCycles()

	var meter power.Meter
	var agg stats.Sim
	var totalCycles uint64
	var mode string
	var workers int
	var runErr error

	for i, st := range steps {
		stepCfg := cfg
		stepCfg.MaxCycles = maxCycles - totalCycles
		if cfg.Telemetry != nil {
			// Each launch's internal cycle counter restarts at zero; the base
			// keeps the recorded series on the sequence-global cycle axis.
			cfg.Telemetry.SetCycleBase(totalCycles)
		}
		r, err := runWithMeter(ctx, stepCfg, arch, st.Prog, st.Launch, gmem, &meter)
		totalCycles += r.Cycles
		agg.Add(&r.Stats)
		if r.Mode != "" {
			mode = r.Mode
		}
		workers = max(workers, r.Workers)
		if err != nil {
			// A single launch's errors surface as they are.
			if len(steps) > 1 {
				err = fmt.Errorf("gpu: launch %d (%s): %w", i, st.Prog.Name, err)
			}
			if !isContextErr(err) {
				return Result{}, err
			}
			runErr = err
			break
		}
	}
	agg.Cycles = totalCycles

	staticW := cfg.Energies.StaticW(cfg.NumSMs, arch.HasCodec())
	bd := meter.Finish(totalCycles, cfg.CoreClockHz, staticW)
	// Finalize after Finish so the power gauges capture the static bucket.
	if cfg.Telemetry != nil {
		cfg.Telemetry.Finalize()
	}
	res := Result{
		Cycles:   totalCycles,
		Stats:    agg,
		Power:    bd,
		IPC:      agg.IPC(),
		EnergyJ:  bd.EnergyJ,
		ExecMode: mode,
		Workers:  workers,
	}
	if bd.AvgPowerW > 0 {
		res.IPCPerW = res.IPC / bd.AvgPowerW
	}
	return res, runErr
}
