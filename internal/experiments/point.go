package experiments

import (
	"context"
	"path/filepath"
	"strings"

	"gscalar"
	"gscalar/internal/gpu"
	"gscalar/internal/kernel"
	"gscalar/internal/sm"
	"gscalar/internal/store"
)

// Point is one simulation an experiment needs: a public architecture and a
// workload spec at the suite's configuration, optionally departing from it
// by a Variant.
type Point struct {
	Arch    gscalar.Arch
	Abbr    string
	Variant Variant
}

// Variant names how a point departs from its public architecture at the
// suite's configuration. The zero Variant is the public point itself.
type Variant string

// The variants the ablations and Fig 10 simulate.
const (
	// Warp32 and Warp64 run at 32- and 64-thread warps, with the resident
	// warps rescaled so resident threads stay constant
	// (gscalar.Config.WithWarpSize; Fig 10). At a configuration of that
	// warp size the variant is the public point itself.
	Warp32 Variant = "warp32"
	Warp64 Variant = "warp64"
	// NoHalf turns off half-warp scalar execution and its second BVR/EBR
	// set (§4.3).
	NoHalf Variant = "nohalf"
	// MoveElision enables the compiler-assisted elision of decompress-moves
	// before dead values (§3.3).
	MoveElision Variant = "moveelision"
	// LRR schedules warps loose round-robin instead of greedy-then-oldest.
	LRR Variant = "lrr"
)

// warpSize returns the warp width a warp variant fixes, or 0 for any other.
func (v Variant) warpSize() int {
	switch v {
	case Warp32:
		return 32
	case Warp64:
		return 64
	}
	return 0
}

// config returns the chip configuration p simulates under the suite's cfg.
func (p Point) config(cfg gscalar.Config) gscalar.Config {
	if ws := p.Variant.warpSize(); ws != 0 {
		return cfg.WithWarpSize(ws)
	}
	return cfg
}

// overlay returns the adjustment p makes to the lowered chip, for variants
// the public Config and Arch cannot express, or nil when it needs none.
func (p Point) overlay() func(*gpu.Config, *sm.Arch) {
	switch p.Variant {
	case NoHalf:
		return func(_ *gpu.Config, a *sm.Arch) { a.F.HalfScalar, a.F.HalfCompression = false, false }
	case MoveElision:
		return func(_ *gpu.Config, a *sm.Arch) { *a = sm.GScalarCompilerAssist() }
	case LRR:
		return func(g *gpu.Config, _ *sm.Arch) { g.SM.Sched = sm.SchedLRR }
	}
	return nil
}

// FileStem renders the point as a file-name stem for its per-point
// artifacts: <arch>_<workload>, then _<variant> for a variant point. Path
// separators and the spec colon are flattened, so a "trace:/dir/f.gstr"
// spec still lands in the output directory.
func (p Point) FileStem() string {
	stem := p.Arch.String() + "_" + strings.NewReplacer("/", "_", "\\", "_", ":", "_").Replace(p.Abbr)
	if p.Variant != "" {
		stem += "_" + string(p.Variant)
	}
	return stem
}

// canonicalHash is the configuration component of a point key: the content
// hash of the normalized config with the worker count cleared. A sparse
// config and its explicit equivalent are the same input, and every relaxed
// worker count produces bit-identical results, so each shares one key.
func canonicalHash(cfg gscalar.Config) string {
	cfg.Normalize()
	cfg.Workers = 0
	return cfg.Hash()
}

// PointKey is the canonical content identity of one public simulation point
// — "configHash|scale=N|arch/workload" — shared by the suite's memo and the
// disk-backed result store behind gscalar-serve (internal/store). Two
// points share a key iff they denote the same simulation input, so a key
// can never be served a stale or foreign result.
//
// The workload component is canonicalized (gscalar.ResolvedWorkload.Key), so
// one trace capture is one entry under any path. A spec that fails to
// resolve keys on its literal text; its run then reports the real error,
// and a key that never simulates successfully is never stored. A caller
// that also runs the point keys it with ResolvedPointKey on the workload
// it runs.
func PointKey(cfg gscalar.Config, scale int, arch gscalar.Arch, abbr string) string {
	if w, err := gscalar.ResolveWorkload(abbr); err == nil {
		abbr = w.Key()
	}
	return store.Key(canonicalHash(cfg), scale, arch.String(), abbr)
}

// ResolvedPointKey is PointKey for a workload already resolved: the key of
// exactly the content a Session.RunResolved of w simulates.
func ResolvedPointKey(cfg gscalar.Config, scale int, arch gscalar.Arch, w gscalar.ResolvedWorkload) string {
	return store.Key(canonicalHash(cfg), scale, arch.String(), w.Key())
}

// canonical returns p as the suite runs and keys it: a warp variant at the
// suite's own warp size simulates the suite's configuration, so it is the
// public point.
func (s *Suite) canonical(p Point) Point {
	if ws := p.Variant.warpSize(); ws != 0 {
		cfg := s.o.Config
		cfg.Normalize()
		if cfg.WarpSize == ws {
			p.Variant = ""
		}
	}
	return p
}

// key is p's memo key: its ResolvedPointKey at the suite's configuration,
// with the variant label appended for a variant point.
func (s *Suite) key(p Point, w gscalar.ResolvedWorkload) string {
	k := ResolvedPointKey(s.o.Config, s.o.Scale, p.Arch, w)
	if p.Variant != "" {
		k += "|" + string(p.Variant)
	}
	return k
}

// resolve returns the suite's resolution of a workload spec, made on first
// use: a suite reads each trace file once, so its keys and runs all see one
// content however the file changes meanwhile. A failure is not kept.
func (s *Suite) resolve(spec string) (gscalar.ResolvedWorkload, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.workloads[spec]
	if ok {
		return w, nil
	}
	w, err := gscalar.ResolveWorkload(spec)
	if err == nil {
		s.workloads[spec] = w
	}
	return w, err
}

// outcome is one simulated point: the public Result the figures read, and
// the raw chip result it summarises, for counters Result does not carry.
type outcome struct {
	gscalar.Result
	raw gpu.Result
}

// run returns p's outcome, simulating it at most once per suite: concurrent
// callers of one point join a single simulation (store.Group), and only a
// successful run is memoized, so a failed or cancelled point is retried by
// the next caller.
func (s *Suite) run(ctx context.Context, p Point) (outcome, error) {
	p = s.canonical(p)
	w, err := s.resolve(p.Abbr)
	if err != nil {
		return outcome{}, err
	}
	key := s.key(p, w)
	lookup := func() (outcome, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		o, ok := s.memo[key]
		return o, ok
	}
	if o, ok := lookup(); ok {
		return o, nil
	}
	v, _, err := s.flight.Do(ctx, key, func() (any, error) {
		// A leader that finished between the lookup above and this flight
		// has already been forgotten by the group; its result is in the memo.
		if o, ok := lookup(); ok {
			return o, nil
		}
		o, err := s.simulate(ctx, p, w)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.memo[key] = o
		s.mu.Unlock()
		return o, nil
	})
	if err != nil {
		return outcome{}, err
	}
	return v.(outcome), nil
}

// simulate runs p, whose workload is w, once through a gscalar.Session, so
// the golden-output check, telemetry, capture and error wrapping apply to
// every point.
func (s *Suite) simulate(ctx context.Context, p Point, w gscalar.ResolvedWorkload) (outcome, error) {
	var o outcome
	overlay := p.overlay()
	sess, err := newSession(p.config(s.o.Config), p.Arch, overlay, &o.raw)
	if err != nil {
		return outcome{}, err
	}
	sess.Telemetry = s.o.Telemetry
	// A replay under the public architecture could not reproduce an SM
	// overlay, so overlay points write no trace.
	if s.o.CaptureDir != "" && overlay == nil {
		sess.Capture.Path = filepath.Join(s.o.CaptureDir, p.FileStem()+".gstr")
	}
	o.Result, err = sess.RunResolved(ctx, w, s.o.Scale)
	if err != nil {
		return outcome{}, err
	}
	if s.o.OnMetrics != nil {
		if m := sess.Metrics(); m != nil {
			s.o.OnMetrics(p, m)
		}
	}
	return o, nil
}

// newSession binds a session whose chip runs through overlay (when non-nil)
// and leaves the raw chip result of its last run in *raw.
func newSession(cfg gscalar.Config, arch gscalar.Arch, overlay func(*gpu.Config, *sm.Arch), raw *gpu.Result) (*gscalar.Session, error) {
	sess, err := gscalar.NewSession(cfg, arch)
	if err != nil {
		return nil, err
	}
	sess.Simulate = func(ctx context.Context, g gpu.Config, a sm.Arch, mem *kernel.Memory, steps []gpu.Step) (gpu.Result, error) {
		if overlay != nil {
			overlay(&g, &a)
		}
		r, err := gpu.RunSequenceContext(ctx, g, a, mem, steps)
		*raw = r
		return r, err
	}
	return sess, nil
}
