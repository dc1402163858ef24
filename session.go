package gscalar

import (
	"context"
	"errors"
	"fmt"

	"gscalar/internal/gpu"
	"gscalar/internal/kernel"
	"gscalar/internal/telemetry"
	"gscalar/internal/trace"
	"gscalar/internal/workloads"
)

// Progress is the point-in-time snapshot passed to a Session's Observer.
// The JSON tags are a stable serialization contract: the sweep server's
// job-status endpoint streams these snapshots to clients.
type Progress struct {
	Cycle     uint64 `json:"cycle"`      // current simulated cycle
	WarpInsts uint64 `json:"warp_insts"` // warp instructions committed chip-wide so far
	LiveSMs   int    `json:"live_sms"`   // SMs that still have resident work
}

// Session is a validated run context: one (Config, Arch) pair whose
// invariants were checked once at construction, plus the lifecycle hooks —
// progress observation and context cancellation — shared by every run
// started from it. The zero Session is not usable; construct with
// NewSession.
//
// All run methods take a context.Context. Cancellation (and context
// deadlines) are observed only at cycle-commit boundaries every
// ObserverStride simulated cycles, so a run that completes is bit-identical
// to an uncancellable one, and a cancelled run returns the partial Result
// accumulated up to the checkpoint that saw the cancellation, alongside an
// error satisfying errors.Is(err, context.Canceled) (or DeadlineExceeded).
type Session struct {
	cfg  Config
	arch Arch

	// Observer, when non-nil, receives progress snapshots at lifecycle
	// checkpoints. It runs on the simulation goroutine and must not block
	// for long or mutate simulator state; observing a run never changes its
	// result. Set it before the first run.
	Observer func(Progress)
	// ObserverStride is the simulated-cycle spacing of lifecycle checkpoints
	// (observer calls and cancellation checks). 0 means the gpu package's
	// DefaultLifecycleStride. Checkpoints land at deterministic simulated
	// cycles, which is what makes observer-triggered cancellation cut a run
	// at the same cycle on every execution.
	ObserverStride uint64
	// Telemetry configures per-run metric collection; the most recent run's
	// data is returned by Metrics. Like Observer it lives off-Config, so
	// enabling it changes neither the config hash nor any simulated result.
	// A session with telemetry enabled must not run concurrently with
	// itself (Metrics is overwritten per run).
	Telemetry TelemetryOptions
	// Capture configures trace capture: when Capture.Path is non-empty,
	// every warp-instruction execution of the next single-launch run is
	// recorded and — together with the program, launch configuration and
	// initial memory image — written to that path as a replayable trace
	// (replay with workload spec "trace:<path>"). Like Observer and
	// Telemetry it lives off-Config: enabling capture changes neither the
	// config hash nor any simulated result. Capture requires the serial
	// chip loop (Relaxed unset) so the recorded
	// instruction order is deterministic, and is rejected for multi-launch
	// sequences; a run that fails or is cancelled writes no trace.
	Capture CaptureOptions

	metrics *Metrics // telemetry of the most recently completed run
}

// CaptureOptions configures Session trace capture.
type CaptureOptions struct {
	// Path is the destination trace file; empty disables capture. The file
	// is written atomically after a successful run (store.AtomicWrite), so
	// an interrupted capture never leaves a truncated trace behind.
	Path string
}

// NewSession normalizes and validates cfg and binds it to arch. It is the
// single entry onto the validated-config path, so an invalid configuration
// is rejected before any simulator state is built.
func NewSession(cfg Config, arch Arch) (*Session, error) {
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, arch: arch}, nil
}

// Config returns the session's normalized, validated configuration.
func (s *Session) Config() Config { return s.cfg }

// Arch returns the session's architecture.
func (s *Session) Arch() Arch { return s.arch }

// Metrics returns the telemetry collected by the session's most recent run,
// or nil when Telemetry.Enabled was false (or no run has completed). A
// cancelled run still produces metrics for its simulated prefix.
func (s *Session) Metrics() *Metrics { return s.metrics }

// lower produces the internal chip config with the session's lifecycle
// hooks attached. The observer and telemetry recorder live here — not on
// Config — so Config stays a plain serializable value (JSON round-trip,
// content hash). The returned recorder is nil when telemetry is disabled.
func (s *Session) lower() (gpu.Config, *telemetry.Recorder) {
	g := s.cfg.toGPU()
	if s.Observer != nil {
		obs := s.Observer
		g.Observer = func(p gpu.Progress) { obs(Progress(p)) }
	}
	g.ObserverStride = s.ObserverStride
	var rec *telemetry.Recorder
	if s.Telemetry.Enabled {
		rec = telemetry.NewRecorder(s.Telemetry.SampleStride)
		g.Telemetry = rec
	}
	return g, rec
}

// finishMetrics publishes a completed (or cancelled) run's telemetry.
func (s *Session) finishMetrics(rec *telemetry.Recorder, workload string) {
	if rec != nil {
		s.metrics = newMetrics(rec, s, workload)
	}
}

// wrapErr annotates an error escaping a session run with what was running
// and under which architecture, preserving the cause for errors.Is/As.
func (s *Session) wrapErr(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("gscalar: %s on %s: %w", what, s.arch, err)
}

// newCapture starts a trace capture of a one-step run, or returns (nil,
// nil) when capture is disabled. It must be called before simulation
// starts: the initial memory image is snapshotted here.
func (s *Session) newCapture(workload string, scale int, mem *kernel.Memory, steps []gpu.Step) (*trace.Capture, error) {
	if s.Capture.Path == "" {
		return nil, nil
	}
	if len(steps) != 1 {
		return nil, fmt.Errorf("trace capture covers exactly one kernel launch; it cannot record a multi-launch sequence")
	}
	if s.cfg.Relaxed {
		return nil, fmt.Errorf("trace capture requires the serial chip loop; got Relaxed with EpochCycles=%d", s.cfg.EpochCycles)
	}
	return trace.NewCapture(trace.Meta{
		Workload:   workload,
		Arch:       s.arch.String(),
		Scale:      scale,
		ConfigHash: s.cfg.Hash(),
		WarpSize:   s.cfg.WarpSize,
	}, steps[0].Prog, steps[0].Launch, mem), nil
}

// finishCapture writes the captured trace after a successful run. A failed
// or cancelled run writes nothing — a trace must represent a complete
// execution.
func (s *Session) finishCapture(cap *trace.Capture, runErr error) error {
	if cap == nil || runErr != nil {
		return runErr
	}
	return cap.WriteFile(s.Capture.Path)
}

// run is the one timed-run body behind Run, RunWorkload and RunSequence: a
// single launch is a one-step sequence. label names the run in errors,
// metrics and the captured trace.
func (s *Session) run(ctx context.Context, label string, scale int, mem *kernel.Memory, steps []gpu.Step) (Result, error) {
	cap, err := s.newCapture(label, scale, mem, steps)
	if err != nil {
		return Result{}, s.wrapErr(label, err)
	}
	g, rec := s.lower()
	if cap != nil {
		g.ExecTrace = cap.Record
	}
	r, err := gpu.RunSequenceContext(ctx, g, s.arch.model(), mem, steps)
	s.finishMetrics(rec, label)
	err = s.finishCapture(cap, err)
	return resultFrom(r), s.wrapErr(label, err)
}

// Run simulates an assembled program. On cancellation the returned Result
// holds the partial statistics accumulated so far (see Session).
func (s *Session) Run(ctx context.Context, prog *Program, launch Launch, mem *Memory) (Result, error) {
	lc, err := launch.toKernel()
	if err != nil {
		return Result{}, err
	}
	return s.run(ctx, prog.Name(), 0, mem.m, []gpu.Step{{Prog: prog.p, Launch: lc}})
}

// RunWorkload resolves a workload spec — a Table 2 abbreviation ("HS") or a
// captured trace ("trace:<path>") — builds it at the given scale (1 = the
// default size; trace replays ignore scale, they re-run the captured launch
// exactly) and simulates it. A builtin benchmark's functional output is
// validated against its host golden model; a validation failure is returned
// as an error. A cancelled run skips that check — the output is necessarily
// incomplete — and returns the partial Result with the cancellation error.
func (s *Session) RunWorkload(ctx context.Context, spec string, scale int) (Result, error) {
	src, err := resolveWorkload(spec)
	if err != nil {
		return Result{}, err
	}
	if scale < 1 {
		scale = 1
	}
	inst, err := src.Build(scale)
	if err != nil {
		return Result{}, s.wrapErr(spec, err)
	}
	res, err := s.runInstance(ctx, spec, scale, inst)
	if err != nil {
		return res, err
	}
	if inst.Check != nil {
		if err := inst.Check(); err != nil {
			return Result{}, s.wrapErr(spec, err)
		}
	}
	return res, nil
}

// resolveWorkload maps a spec onto a workload source, translating the
// internal unknown-name error onto the package's typed UnknownWorkloadError.
func resolveWorkload(spec string) (workloads.Source, error) {
	src, err := workloads.Resolve(spec)
	if err != nil {
		var unk *workloads.UnknownError
		if errors.As(err, &unk) {
			return nil, errUnknownWorkload(spec)
		}
		return nil, fmt.Errorf("gscalar: workload %s: %w", spec, err)
	}
	return src, nil
}

// runInstance executes a built workload instance on the timed simulator,
// without the golden-output check (sweeps that deliberately skip it reuse
// this path).
func (s *Session) runInstance(ctx context.Context, label string, scale int, inst *workloads.Instance) (Result, error) {
	return s.run(ctx, label, scale, inst.Mem, []gpu.Step{{Prog: inst.Prog, Launch: inst.Launch}})
}

// RunSequence simulates a dependent sequence of kernel launches sharing the
// given device memory (serialised by an implicit device barrier, as CUDA
// streams would for dependent kernels). Cycles and energy accumulate across
// the whole sequence; a cancelled sequence returns the aggregate of every
// completed launch plus the in-flight launch's partial prefix. Capture
// records one-step sequences only.
func (s *Session) RunSequence(ctx context.Context, mem *Memory, seq []KernelLaunch) (Result, error) {
	steps := make([]gpu.Step, 0, len(seq))
	for _, kl := range seq {
		lc, err := kl.Launch.toKernel()
		if err != nil {
			return Result{}, err
		}
		steps = append(steps, gpu.Step{Prog: kl.Prog.p, Launch: lc})
	}
	return s.run(ctx, "sequence", 0, mem.m, steps)
}

// WarpSizeSweep reproduces Figure 10: the fraction of instructions eligible
// for 16-thread-granularity ("half-scalar"; "quarter-scalar" at warp size
// 64) scalar execution, for each warp size. The same workload is rebuilt per
// point so thread counts stay constant while warps widen; each point derives
// a per-warp-size session from this one (same architecture, observer, and
// telemetry options, with MaxWarpsPerSM rescaled to keep resident-thread
// capacity constant). Cancelling ctx aborts the sweep at the in-flight
// point's next lifecycle checkpoint.
func (s *Session) WarpSizeSweep(ctx context.Context, abbr string, warpSizes []int, scale int) ([]WarpSizeSweepResult, error) {
	src, err := resolveWorkload(abbr)
	if err != nil {
		return nil, err
	}
	if scale < 1 {
		scale = 1
	}
	out := make([]WarpSizeSweepResult, 0, len(warpSizes))
	for _, ws := range warpSizes {
		inst, err := src.Build(scale)
		if err != nil {
			return nil, err
		}
		c := s.cfg
		c.WarpSize = ws
		// Keep resident-thread capacity constant as warps widen.
		c.MaxWarpsPerSM = DefaultConfig().MaxWarpsPerSM * DefaultConfig().WarpSize / ws
		p, err := NewSession(c, s.arch)
		if err != nil {
			return nil, fmt.Errorf("gscalar: warp-size sweep at %d: %w", ws, err)
		}
		p.Observer = s.Observer
		p.ObserverStride = s.ObserverStride
		p.Telemetry = s.Telemetry
		// Capture is deliberately not inherited: one trace file cannot hold
		// a whole sweep of runs.
		r, err := p.runInstance(ctx, abbr, scale, inst)
		if err != nil {
			return nil, fmt.Errorf("gscalar: warp-size sweep at %d: %w", ws, err)
		}
		out = append(out, WarpSizeSweepResult{
			WarpSize:  ws,
			HalfFrac:  r.Eligibility.Half,
			TotalFrac: r.Eligibility.Total(),
		})
	}
	return out, nil
}
