package gscalar

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/profile"
	"gscalar/internal/warp"
	"gscalar/internal/workloads"
)

// Program is an assembled .gasm kernel.
type Program struct {
	p *kernel.Program
}

// Assemble parses .gasm source into a Program. The grammar is documented in
// the README ("Writing kernels").
func Assemble(src string) (*Program, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// Name returns the kernel name (.kernel directive).
func (p *Program) Name() string { return p.p.Name }

// Len returns the number of static instructions.
func (p *Program) Len() int { return p.p.Len() }

// Disassemble renders the program back to .gasm text with resolved
// reconvergence points.
func (p *Program) Disassemble() string { return asm.Disassemble(p.p) }

// Launch describes a kernel launch: the grid of CTAs, CTA shape, shared
// memory per CTA, and up to 16 uniform 32-bit parameters ($0..$15).
type Launch struct {
	GridX, GridY   int
	BlockX, BlockY int
	SharedBytes    int
	Params         []uint32
}

// Memory is the simulated device global memory.
type Memory struct {
	m *kernel.Memory
}

// NewMemory creates an empty device memory with a bump allocator.
func NewMemory() *Memory { return &Memory{m: kernel.NewMemory()} }

// AddrSpaceError is the typed panic value raised when an allocation or a
// bulk read/write would exceed the 32-bit device address space (it used to
// wrap around silently).
type AddrSpaceError = kernel.AddrSpaceError

// Alloc reserves n bytes and returns the device address. It panics with a
// *AddrSpaceError when the 32-bit address space is exhausted.
func (m *Memory) Alloc(n int) uint32 { return m.m.Alloc(n) }

// AllocU32 allocates and fills a word buffer.
func (m *Memory) AllocU32(vals []uint32) uint32 { return m.m.AllocU32(vals) }

// AllocF32 allocates and fills a float buffer.
func (m *Memory) AllocF32(vals []float32) uint32 { return m.m.AllocF32(vals) }

// ReadU32 copies n words out of device memory.
func (m *Memory) ReadU32(addr uint32, n int) []uint32 { return m.m.ReadU32(addr, n) }

// ReadF32 copies n floats out of device memory.
func (m *Memory) ReadF32(addr uint32, n int) []float32 { return m.m.ReadF32(addr, n) }

// WriteU32 copies words into device memory.
func (m *Memory) WriteU32(addr uint32, vals []uint32) { m.m.WriteU32(addr, vals) }

// WriteF32 copies floats into device memory.
func (m *Memory) WriteF32(addr uint32, vals []float32) { m.m.WriteF32(addr, vals) }

// RunFunctional executes a launch on the untimed golden-model interpreter
// (useful to validate kernels before timed runs).
func RunFunctional(prog *Program, launch Launch, mem *Memory) error {
	lc, err := launch.toKernel()
	if err != nil {
		return err
	}
	_, err = warp.FuncRun(prog.p, lc, mem.m, 32, 0)
	return err
}

// KernelLaunch pairs a program with its launch configuration, for
// multi-kernel sequences.
type KernelLaunch struct {
	Prog   *Program
	Launch Launch
}

// ProfileKernel runs the launch on the functional profiler and returns an
// annotated listing: per-instruction execution counts, average active
// lanes, divergence and value-uniformity fractions, and the compile-time
// analysis verdict.
func ProfileKernel(prog *Program, launch Launch, mem *Memory) (string, error) {
	lc, err := launch.toKernel()
	if err != nil {
		return "", err
	}
	p, err := profile.Run(prog.p, lc, mem.m, 0)
	if err != nil {
		return "", err
	}
	return p.Listing(), nil
}

// TraceKernel writes an instruction-level execution trace of the launch to
// w (functional interpreter; up to maxEvents lines).
func TraceKernel(w io.Writer, prog *Program, launch Launch, mem *Memory, maxEvents int) error {
	lc, err := launch.toKernel()
	if err != nil {
		return err
	}
	return profile.Trace(w, prog.p, lc, mem.m, maxEvents)
}

// Workloads returns the Table 2 benchmark abbreviations in table order.
func Workloads() []string { return workloads.Abbrs() }

// WorkloadInfo describes one Table 2 benchmark.
type WorkloadInfo struct {
	Abbr, Name, Suite, Desc string
}

// WorkloadByAbbr returns metadata for one benchmark.
func WorkloadByAbbr(abbr string) (WorkloadInfo, bool) {
	w, ok := workloads.ByAbbr(abbr)
	if !ok {
		return WorkloadInfo{}, false
	}
	return WorkloadInfo{Abbr: w.Abbr, Name: w.Name, Suite: w.Suite, Desc: w.Desc}, true
}

func errUnknownWorkload(abbr string) error {
	return &UnknownWorkloadError{Abbr: abbr}
}

// UnknownWorkloadError is returned for a workload spec that names neither a
// Table 2 benchmark nor a trace file nor a generated kernel.
type UnknownWorkloadError struct{ Abbr string }

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("gscalar: unknown workload %q (valid: %s; or %s<path> to replay a captured trace; or %s<dials> for a synthetic kernel)",
		e.Abbr, strings.Join(workloads.Abbrs(), " "), workloads.TracePrefix, workloads.GenPrefix)
}

// CanonicalWorkloadKey resolves a workload spec — a Table 2 abbreviation or
// "trace:<path>" — to its canonical cache identity: the abbreviation itself
// for builtins, "trace:" + the trace file's sha256 content hash for trace
// replays. Two specs with equal keys simulate identically, which is what
// lets the experiment cache and the sweep server's result store key
// trace-backed points on trace *content* rather than on a file path that
// may be moved, copied or overwritten.
func CanonicalWorkloadKey(spec string) (string, error) {
	src, err := workloads.Resolve(spec)
	if err != nil {
		var unk *workloads.UnknownError
		if errors.As(err, &unk) {
			return "", errUnknownWorkload(spec)
		}
		return "", fmt.Errorf("gscalar: workload %s: %w", spec, err)
	}
	return src.Key(), nil
}

// DescribeWorkload returns a one-line human description of a workload spec
// (builtin benchmark or trace replay).
func DescribeWorkload(spec string) (string, error) {
	src, err := workloads.Resolve(spec)
	if err != nil {
		var unk *workloads.UnknownError
		if errors.As(err, &unk) {
			return "", errUnknownWorkload(spec)
		}
		return "", fmt.Errorf("gscalar: workload %s: %w", spec, err)
	}
	return src.Describe(), nil
}
