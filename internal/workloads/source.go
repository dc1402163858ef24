package workloads

import (
	"fmt"
	"strings"

	"gscalar/internal/gen"
	"gscalar/internal/trace"
)

// Source is the workload-source abstraction: anything that can materialise a
// runnable Instance. The builtin Table 2 registry and trace files both
// implement it, so every layer above (Session, experiments, serve, CLIs)
// resolves one spec syntax and never cares where instructions come from.
type Source interface {
	// Key is the canonical cache identity of the workload: the Table 2
	// abbreviation for builtins, "trace:" + the trace's content hash for
	// trace files. Two specs with equal Keys build identical instances, so
	// Key (together with config hash, arch and scale) is safe to use as a
	// result-store key.
	Key() string
	// Describe is a one-line human description.
	Describe() string
	// Build constructs a fresh Instance. scale >= 1 grows builtin grids;
	// trace sources replay the captured launch exactly and ignore it.
	Build(scale int) (*Instance, error)
}

// TracePrefix marks a workload spec as a trace-file path: "trace:<path>".
const TracePrefix = "trace:"

// UnknownError reports a workload spec that names neither a builtin
// benchmark nor a trace file nor a generated kernel.
type UnknownError struct {
	Spec  string
	Valid []string // builtin abbreviations, Table 2 order
}

func (e *UnknownError) Error() string {
	return fmt.Sprintf("unknown workload %q (valid: %s; or %s<path> to replay a captured trace; or %s<dials> for a synthetic kernel)",
		e.Spec, strings.Join(e.Valid, " "), TracePrefix, GenPrefix)
}

// Resolve turns a workload spec into a Source. The grammar is ParseSpec's:
// a builtin Table 2 abbreviation ("HS"), a trace-file reference
// ("trace:<path>"), or a generated synthetic kernel ("gen:div=0.3,...").
// Trace files are decoded at resolve time — a missing, truncated or
// version-mismatched file fails here with the trace package's typed errors.
// Every call reads the file afresh, so a Source always reflects the content
// at the path now, even after the file is overwritten. Gen dial errors (*gen.DialError) also surface here, so
// a bad spec fails before any simulation is attempted.
func Resolve(spec string) (Source, error) {
	ps, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	switch ps.Kind {
	case SpecTrace:
		t, err := trace.ReadFile(ps.Path)
		if err != nil {
			return nil, err
		}
		return &traceSource{t: t}, nil
	case SpecGen:
		return &genSource{p: ps.Gen}, nil
	}
	w, ok := ByAbbr(ps.Abbr)
	if !ok {
		return nil, &UnknownError{Spec: spec, Valid: Abbrs()}
	}
	return builtinSource{w: w}, nil
}

// builtinSource adapts a registry Workload to the Source interface.
type builtinSource struct{ w Workload }

func (b builtinSource) Key() string { return b.w.Abbr }
func (b builtinSource) Describe() string {
	return fmt.Sprintf("%s (%s, %s)", b.w.Name, b.w.Abbr, b.w.Suite)
}
func (b builtinSource) Build(scale int) (*Instance, error) { return b.w.Build(scale) }

// traceSource replays a captured trace: the Instance is rebuilt from the
// trace's static sections (program shared, launch and memory fresh per
// build), so concurrent replays from one Source never share mutable state.
// There is no golden-output check — the capture's provenance is the trace
// itself.
type traceSource struct{ t *trace.Trace }

func (s *traceSource) Key() string { return TracePrefix + s.t.Hash }

func (s *traceSource) Describe() string {
	m := s.t.Meta
	label := m.Workload
	if label == "" {
		label = "unnamed capture"
	}
	desc := fmt.Sprintf("trace replay of %s", label)
	if m.Arch != "" {
		desc += " (captured on " + m.Arch + ")"
	}
	return desc
}

// Build materialises a replayable Instance. The captured launch is replayed
// exactly, so scale is ignored — a trace is one concrete run, not a
// parameterized generator.
func (s *traceSource) Build(scale int) (*Instance, error) {
	prog, err := s.t.Program()
	if err != nil {
		return nil, err
	}
	return &Instance{
		Prog:   prog,
		Launch: s.t.Launch(),
		Mem:    s.t.NewMemory(),
	}, nil
}

// genSource materialises synthetic kernels from a parsed dial vector.
// The Key is the canonical "gen:" spec — two spellings of the same dials
// share it — and every Build renders, assembles and fills memory afresh
// (deterministically), so concurrent builds never share mutable state.
type genSource struct{ p gen.Params }

func (g *genSource) Key() string      { return GenPrefix + g.p.Canonical() }
func (g *genSource) Describe() string { return g.p.Describe() }

// Build renders the synthetic kernel. There is no golden-output check:
// the workload's contract is its measured dynamic properties (held by the
// gendet property suite), not a functional result.
func (g *genSource) Build(scale int) (*Instance, error) {
	prog, lc, mem, err := gen.Build(g.p, scale)
	if err != nil {
		return nil, err
	}
	return &Instance{Prog: prog, Launch: lc, Mem: mem}, nil
}

// GenParamsOf returns the dial vector behind src when it is a generated
// workload.
func GenParamsOf(src Source) (gen.Params, bool) {
	gs, ok := src.(*genSource)
	if !ok {
		return gen.Params{}, false
	}
	return gs.p, true
}

// Trace exposes the decoded trace behind a trace-backed Source (nil for
// builtins); callers use it for metadata like the content hash.
func (s *traceSource) Trace() *trace.Trace { return s.t }

// TraceOf returns the decoded trace behind src when src replays one.
func TraceOf(src Source) (*trace.Trace, bool) {
	ts, ok := src.(*traceSource)
	if !ok {
		return nil, false
	}
	return ts.t, true
}
