// Package gpu assembles the full chip: SMs, the CTA dispatcher, and the
// shared L2/DRAM memory system, and runs a kernel launch to completion
// under a chosen architecture, producing cycle counts, statistics, and a
// power breakdown.
package gpu

import (
	"context"
	"errors"
	"fmt"

	"gscalar/internal/kernel"
	"gscalar/internal/mem"
	"gscalar/internal/power"
	"gscalar/internal/sm"
	"gscalar/internal/stats"
	"gscalar/internal/telemetry"
	"gscalar/internal/warp"
)

// Config is the chip-level configuration (Table 1).
type Config struct {
	NumSMs      int
	CoreClockHz float64
	SM          sm.Config
	MemTiming   mem.Timing
	L2Bytes     int
	Energies    power.Energies
	// MaxCycles aborts runaway simulations (0 = a large default).
	MaxCycles uint64
	// Workers is the relaxed loop's compute-worker count (negative = one per
	// host core). It requires EpochCycles > 0: the serial loop has no
	// workers, so runWithMeter rejects Workers != 0 without an epoch. Every
	// worker count produces bit-identical results; it only changes
	// wall-clock time.
	Workers int
	// EpochCycles, when positive, selects the relaxed epoch-parallel loop:
	// workers advance their SMs up to EpochCycles cycles between rendezvous
	// over the shared L2/DRAM system, committing deferred traffic in
	// ascending SM-id order at each epoch boundary. It is not bit-identical
	// to the serial loop — beyond-L1 completion times inside an epoch are
	// estimates against the frozen shared state — but a fixed EpochCycles
	// value is deterministic for every worker count and across repeated
	// runs. 0 runs the serial loop.
	EpochCycles int
	// DisableIdleSkip turns off event-driven idle skipping: by default both
	// loops fast-forward the cycle counter to the chip's next-event cycle
	// whenever every SM is quiescent (no ready warps, no live operand
	// collectors — only in-flight memory/pipeline completions). Skipped
	// cycles mutate no state whatsoever, so serial results are bit-identical
	// with skipping on or off; the flag exists for benchmarking the raw loop
	// and for validating exactly that property. (In the relaxed loop a skip
	// also moves the epoch grid, so there the flag is a model parameter.)
	DisableIdleSkip bool
	// Observer, when non-nil, is called at lifecycle checkpoints — the
	// cycle-commit boundaries every ObserverStride simulated cycles — with a
	// point-in-time progress snapshot. It runs on the simulation goroutine
	// between cycles, outside both loops' hot paths, and must not mutate
	// simulator state; calling it changes no simulated result.
	Observer func(Progress)
	// ObserverStride is the number of simulated cycles between lifecycle
	// checkpoints (observer calls and context-cancellation checks). 0 means
	// DefaultLifecycleStride. The stride is counted in simulated cycles, so
	// checkpoint placement — and therefore the partial result of a
	// cancellation triggered by the observer — is deterministic.
	ObserverStride uint64
	// Telemetry, when non-nil, collects this run's metrics: every layer
	// registers its counters/gauges at launch construction and the recorder
	// samples a time series at lifecycle checkpoints. All reads happen
	// serially between cycles and mutate no simulator state, so a run with
	// telemetry attached is bit-identical to one without.
	Telemetry *telemetry.Recorder
	// ExecTrace, when non-nil, observes every warp-instruction execution in
	// issue order (trace capture). It requires the serial loop
	// (EpochCycles == 0): the relaxed loop interleaves SM compute across
	// goroutines, which would make the observation order nondeterministic —
	// runWithMeter rejects the combination. The hook costs the hot path one
	// nil check when unset; like Observer/Telemetry it must not mutate
	// simulator state, so an observed run is bit-identical to a bare one.
	ExecTrace func(smID, warpGlobalID int, out *warp.Outcome)
}

// DefaultLifecycleStride is the default spacing, in simulated cycles,
// between lifecycle checkpoints (context checks and observer calls).
const DefaultLifecycleStride = 4096

// Progress is the point-in-time snapshot passed to Config.Observer.
type Progress struct {
	Cycle     uint64 // current simulated cycle
	WarpInsts uint64 // warp instructions committed chip-wide so far
	LiveSMs   int    // SMs that still have resident work
}

// DefaultConfig returns the GTX-480-like configuration of Table 1.
func DefaultConfig() Config {
	return Config{
		NumSMs:      15,
		CoreClockHz: 1.4e9,
		SM:          sm.DefaultConfig(),
		MemTiming:   mem.DefaultTiming(),
		L2Bytes:     768 << 10,
		Energies:    power.DefaultEnergies(),
		MaxCycles:   0,
	}
}

// Result summarises one simulated launch.
type Result struct {
	Cycles  uint64
	Stats   stats.Sim
	Power   power.Breakdown
	IPC     float64 // committed warp instructions per cycle (chip-wide)
	IPCPerW float64 // the paper's power-efficiency metric
	EnergyJ float64
	// ExecMode and Workers record how the run actually executed — the chip
	// loop ("serial" or "relaxed") and the resolved compute-worker count —
	// so benches and callers can assert what ran rather than what was
	// requested. They describe the execution, not the simulated machine:
	// every relaxed worker count produces bit-identical simulation outputs.
	ExecMode string
	Workers  int
}

// Run simulates prog with launch lc on memory gmem under arch. It is
// RunContext with a background context.
func Run(cfg Config, arch sm.Arch, prog *kernel.Program, lc *kernel.LaunchConfig, gmem *kernel.Memory) (Result, error) {
	return RunContext(context.Background(), cfg, arch, prog, lc, gmem)
}

// RunContext simulates prog with launch lc on memory gmem under arch,
// honouring ctx cancellation and deadlines. Cancellation is observed only at
// lifecycle checkpoints (cycle-commit boundaries every ObserverStride
// cycles), so a run that completes is bit-identical to one executed without
// a context. A cancelled or deadline-exceeded run returns the partial Result
// accumulated up to the checkpoint that observed the cancellation — cycles,
// statistics, and power integrated over the simulated prefix — alongside an
// error satisfying errors.Is(err, ctx.Err()).
func RunContext(ctx context.Context, cfg Config, arch sm.Arch, prog *kernel.Program, lc *kernel.LaunchConfig, gmem *kernel.Memory) (Result, error) {
	return RunSequenceContext(ctx, cfg, arch, gmem, []Step{{Prog: prog, Launch: lc}})
}

// isContextErr reports whether err stems from context cancellation or an
// expired deadline — the errors that carry a well-defined partial Result.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// rawResult is a simulation outcome before power finalisation, so launch
// sequences can share one energy meter. Mode and Workers record the chip
// loop that ran and its resolved compute-worker count.
type rawResult struct {
	Cycles  uint64
	Stats   stats.Sim
	Mode    string
	Workers int
}

// Execution-mode names recorded in rawResult.Mode / Result.ExecMode.
const (
	modeSerial  = "serial"
	modeRelaxed = "relaxed"
)

// ctaDispatcher assigns pending CTAs to SMs with capacity, round-robin from
// a rotating start index: each assignment resumes the scan at the SM after
// the one just fed, so freed capacity is shared fairly across the chip
// instead of favouring low-numbered SMs. The rotation depends only on the
// assignment history, making placement deterministic for any worker count.
type ctaDispatcher struct {
	next  int // next CTA linear id to place
	total int
	start int // SM index to begin the next scan at
}

// dispatch places as many pending CTAs as currently fit.
func (d *ctaDispatcher) dispatch(sms []*sm.SM) {
	n := len(sms)
	for d.next < d.total {
		assigned := false
		for i := 0; i < n; i++ {
			idx := (d.start + i) % n
			if sms[idx].CanTakeCTA() {
				sms[idx].LaunchCTA(d.next)
				d.next++
				d.start = (idx + 1) % n
				assigned = true
				break
			}
		}
		if !assigned {
			return
		}
	}
}

// done reports whether every CTA has been placed.
func (d *ctaDispatcher) done() bool { return d.next >= d.total }

// effectiveMaxCycles resolves the runaway-simulation bound.
func (cfg Config) effectiveMaxCycles() uint64 {
	if cfg.MaxCycles == 0 {
		return 200_000_000
	}
	return cfg.MaxCycles
}

// runWithMeter is the shared simulation entry: it deposits energy into the
// caller's meter and returns cycle/statistics totals. Config.EpochCycles > 0
// selects the relaxed epoch loop, run by Config.Workers workers; otherwise
// the serial loop runs, which takes no workers.
func runWithMeter(ctx context.Context, cfg Config, arch sm.Arch, prog *kernel.Program, lc *kernel.LaunchConfig, gmem *kernel.Memory, meter *power.Meter) (rawResult, error) {
	if err := lc.Validate(cfg.SM.MaxWarps * cfg.SM.WarpSize); err != nil {
		return rawResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return rawResult{}, fmt.Errorf("gpu: cancelled before cycle 0: %w", err)
	}
	if cfg.Workers != 0 && cfg.EpochCycles <= 0 {
		return rawResult{}, fmt.Errorf("gpu: Workers=%d requires the relaxed loop (EpochCycles > 0); the serial loop takes no workers", cfg.Workers)
	}
	if cfg.ExecTrace != nil && cfg.EpochCycles > 0 {
		return rawResult{}, fmt.Errorf("gpu: ExecTrace requires the serial loop (EpochCycles=0); got EpochCycles=%d", cfg.EpochCycles)
	}
	if cfg.EpochCycles > 0 {
		return runRelaxed(ctx, cfg, arch, prog, lc, gmem, meter)
	}
	return runSerial(ctx, cfg, arch, prog, lc, gmem, meter)
}

// lifecycle bundles the per-run checkpoint state: the cadence at which both
// chip loops surface cancellation and invoke the progress observer. All
// checkpoints land on cycle-commit boundaries at deterministic simulated
// cycles, so a cancellation triggered from the observer cuts the run at the
// same cycle on every execution, and a run that completes is untouched.
type lifecycle struct {
	ctx     context.Context
	observe func(Progress)
	stride  uint64
	next    uint64 // first cycle at or beyond which the next checkpoint fires

	// Telemetry sampling rides the same commit-boundary cadence on its own
	// deterministic stride grid, so sample placement is a pure function of
	// the simulated cycle sequence too.
	sampler      *chipSampler
	sampleStride uint64
	nextSample   uint64
}

func newLifecycle(ctx context.Context, cfg Config, cs *chipSampler) lifecycle {
	stride := cfg.ObserverStride
	if stride == 0 {
		stride = DefaultLifecycleStride
	}
	lf := lifecycle{ctx: ctx, observe: cfg.Observer, stride: stride, next: stride}
	if cs != nil {
		lf.sampler = cs
		lf.sampleStride = cs.stride
		lf.nextSample = cs.stride
	}
	return lf
}

// checkpoint fires when the commit boundary at cycle has reached the next
// stride mark: it samples progress for the observer and reports any context
// cancellation. Idle skipping may jump several marks at once; the checkpoint
// then fires once and realigns to the stride grid, keeping the firing cycles
// a pure function of the simulated cycle sequence.
func (lf *lifecycle) checkpoint(sms []*sm.SM, cycle uint64) error {
	if lf.sampler != nil && cycle >= lf.nextSample {
		lf.nextSample = cycle - cycle%lf.sampleStride + lf.sampleStride
		lf.sampler.sample(cycle)
	}
	if cycle < lf.next {
		return nil
	}
	lf.next = cycle - cycle%lf.stride + lf.stride
	if lf.observe != nil {
		lf.observe(progressOf(sms, cycle))
	}
	if err := lf.ctx.Err(); err != nil {
		return fmt.Errorf("gpu: cancelled at cycle %d: %w", cycle, err)
	}
	return nil
}

// finalSample records the closing time-series point of a launch (normal
// completion or cancellation cut). The recorder drops it if the last
// checkpoint already sampled this cycle.
func (lf *lifecycle) finalSample(cycle uint64) {
	if lf.sampler != nil {
		lf.sampler.sample(cycle)
	}
}

// progressOf samples chip-wide progress counters in ascending SM-id order.
func progressOf(sms []*sm.SM, cycle uint64) Progress {
	p := Progress{Cycle: cycle}
	for _, s := range sms {
		p.WarpInsts += s.Retired()
		if s.Busy() {
			p.LiveSMs++
		}
	}
	return p
}

// runSerial is the legacy single-goroutine loop: SMs step in ascending id
// order each cycle, touching the shared memory system and meter directly.
func runSerial(ctx context.Context, cfg Config, arch sm.Arch, prog *kernel.Program, lc *kernel.LaunchConfig, gmem *kernel.Memory, meter *power.Meter) (rawResult, error) {
	maxCycles := cfg.effectiveMaxCycles()
	msys := mem.NewSystem(cfg.MemTiming, cfg.L2Bytes)
	sms := make([]*sm.SM, cfg.NumSMs)
	for i := range sms {
		sms[i] = sm.New(i, cfg.SM, arch, cfg.Energies, prog, lc, gmem, msys, meter)
		if cfg.ExecTrace != nil {
			sms[i].SetExecTrace(cfg.ExecTrace)
		}
	}
	tel := bindTelemetry(cfg, sms, []*power.Meter{meter}, meter, msys, modeSerial, 1)
	lf := newLifecycle(ctx, cfg, tel)

	disp := ctaDispatcher{total: lc.Grid.Count()}
	var cycle uint64

	for {
		disp.dispatch(sms)

		// Event-driven idle skipping: once CTA dispatch has run (a fresh
		// CTA makes its SM unskippable), a chip where every SM is
		// quiescent can jump straight to the earliest completion event.
		// The skipped cycles would not have mutated any state.
		if !cfg.DisableIdleSkip {
			if target, ok := nextEventCycle(sms); ok && target > cycle {
				if target >= maxCycles {
					return rawResult{}, fmt.Errorf("gpu: exceeded %d cycles (deadlock or runaway kernel)", maxCycles)
				}
				cycle = target
			}
		}

		busy := false
		for _, s := range sms {
			s.Cycle(cycle)
			if s.Err() != nil {
				return rawResult{}, fmt.Errorf("gpu: cycle %d: %w", cycle, s.Err())
			}
			if s.Busy() {
				busy = true
			}
		}
		cycle++
		if !busy && disp.done() {
			break
		}
		if cycle >= maxCycles {
			return rawResult{}, fmt.Errorf("gpu: exceeded %d cycles (deadlock or runaway kernel)", maxCycles)
		}
		if err := lf.checkpoint(sms, cycle); err != nil {
			lf.finalSample(cycle)
			return finishRun(sms, cycle, modeSerial, 1), err
		}
	}

	lf.finalSample(cycle)
	return finishRun(sms, cycle, modeSerial, 1), nil
}

// nextEventCycle folds the per-SM next-event reports into a chip-wide skip
// target. ok is false when any SM must be stepped cycle by cycle. A chip
// whose SMs are all idle (sm.NoEvent) reports ok=false too: either the run
// is about to terminate, or CTAs are unplaceable (a configuration error the
// cycle-by-cycle MaxCycles bound should surface, not a skip).
func nextEventCycle(sms []*sm.SM) (uint64, bool) {
	next := uint64(sm.NoEvent)
	for _, s := range sms {
		c, ok := s.NextEventCycle()
		if !ok {
			return 0, false
		}
		if c < next {
			next = c
		}
	}
	if next == sm.NoEvent {
		return 0, false
	}
	return next, true
}

// finishRun aggregates per-SM statistics in ascending id order and stamps
// the execution mode and resolved worker count the run used.
func finishRun(sms []*sm.SM, cycle uint64, mode string, workers int) rawResult {
	var agg stats.Sim
	for _, s := range sms {
		agg.Add(s.Stats())
	}
	agg.Cycles = cycle
	return rawResult{Cycles: cycle, Stats: agg, Mode: mode, Workers: workers}
}
