// Package gscalar is a cycle-level GPU simulator reproducing "G-Scalar:
// Cost-Effective Generalized Scalar Execution Architecture for
// Power-Efficient GPUs" (Liu, Gilani, Annavaram, Kim — HPCA 2017).
//
// It models a GTX-480-class GPU (15 SMs, 16-bank register file, 2×16-lane
// ALU + 16-lane memory + 4-lane SFU pipelines) with an event-energy power
// model, and implements the paper's byte-wise register value compression
// and generalized scalar execution (including divergent and half-warp
// scalar), alongside the prior-work comparators it is evaluated against:
// the scalar-register-file architecture (Gilani et al., HPCA'13) and
// BDI-based Warped-Compression (Lee et al., ISCA'15).
//
// Quick start:
//
//	cfg := gscalar.DefaultConfig()
//	s, err := gscalar.NewSession(cfg, gscalar.GScalar)
//	res, err := s.RunWorkload(ctx, "BP", 1)
//	fmt.Printf("IPC/W improvement: %.2fx\n", res.IPCPerW/base.IPCPerW)
//
// A Session is the single entry point: it validates the (config,
// architecture) pair once and carries the run-scoped options — progress
// observation (Observer), metric collection (Telemetry, exported through
// Metrics as JSON, CSV, or a Chrome trace), and context cancellation.
//
// Workload specs accept three forms everywhere a workload is named: a
// Table 2 builtin abbreviation ("BP"), a captured trace ("trace:<path>"),
// or a calibrated synthetic kernel ("gen:div=0.3,sfu=0.2,...").
//
// Custom kernels are written in .gasm assembly (see package documentation
// of internal/asm for the grammar) and run via Assemble / NewMemory /
// Session.Run.
package gscalar

import (
	"fmt"

	"gscalar/internal/core"
	"gscalar/internal/gpu"
	"gscalar/internal/isa"
	"gscalar/internal/kernel"
	"gscalar/internal/power"
	"gscalar/internal/sm"
)

// Arch selects the simulated architecture.
type Arch int

// Architectures, in the order the paper's figures present them.
const (
	// Baseline is the unmodified GTX-480-like GPU.
	Baseline Arch = iota
	// ALUScalar is the prior scalar-register-file architecture (Gilani et
	// al. [3]): scalar execution of non-divergent arithmetic/logic
	// instructions only, with a single dedicated scalar bank.
	ALUScalar
	// WarpedCompression is BDI register compression (Lee et al. [4]),
	// Figure 12's "W-C" — no scalar execution.
	WarpedCompression
	// RVCOnly is the paper's byte-wise register value compression without
	// scalar execution (Figure 12's "ours").
	RVCOnly
	// GScalarNoDiv is G-Scalar without divergent/half-warp scalar
	// execution (Figure 11's "G-Scalar w/o divergent").
	GScalarNoDiv
	// GScalar is the full architecture: compression + scalar execution of
	// ALU, SFU and memory instructions, half-warp scalar, and divergent
	// scalar.
	GScalar
)

// archTable is the single registry tying each Arch to everything derived
// from it: its short name and its SM-level architecture overlay. Adding an
// architecture means adding exactly one entry here (plus the constant
// above), so the name, the model, AllArchs, and ArchByName can never
// desynchronize.
var archTable = [...]struct {
	name  string
	model func() sm.Arch
}{
	Baseline:          {"baseline", sm.Baseline},
	ALUScalar:         {"alu-scalar", sm.PriorScalarRF},
	WarpedCompression: {"warped-compression", sm.WarpedCompression},
	RVCOnly:           {"rvc-only", sm.RVCOnly},
	GScalarNoDiv:      {"gscalar-nodiv", sm.GScalarNoDiv},
	GScalar:           {"gscalar", sm.GScalar},
}

// String returns the architecture's short name.
func (a Arch) String() string {
	if a >= 0 && int(a) < len(archTable) {
		return archTable[a].name
	}
	return fmt.Sprintf("arch(%d)", int(a))
}

// AllArchs lists every architecture in presentation order.
func AllArchs() []Arch {
	out := make([]Arch, len(archTable))
	for i := range archTable {
		out[i] = Arch(i)
	}
	return out
}

// ArchByName resolves an architecture's short name (as produced by String),
// for CLI flags and config files.
func ArchByName(name string) (Arch, bool) {
	for i := range archTable {
		if archTable[i].name == name {
			return Arch(i), true
		}
	}
	return 0, false
}

// ArchNames lists the short names in presentation order.
func ArchNames() []string {
	out := make([]string, len(archTable))
	for i := range archTable {
		out[i] = archTable[i].name
	}
	return out
}

// model maps the public Arch to the SM-level architecture overlay.
func (a Arch) model() sm.Arch {
	if a >= 0 && int(a) < len(archTable) {
		return archTable[a].model()
	}
	return sm.Baseline()
}

// Config is the simulated chip configuration (Table 1 of the paper).
type Config struct {
	NumSMs          int     // streaming multiprocessors (Table 1: 15)
	CoreClockHz     float64 // SM clock (Table 1: 1.4 GHz)
	WarpSize        int     // threads per warp (Table 1: 32)
	SchedulersPerSM int     // warp schedulers (Table 1: 2)
	MaxWarpsPerSM   int     // resident warps (Table 1: 1536 threads / 32)
	MaxCTAsPerSM    int     // resident CTAs (Table 1: 8)
	RegFileKB       int     // register file per SM (Table 1: 128 KB)
	RegFileBanks    int     // register-file banks (Table 1: 16)
	CollectorsPerSM int     // operand collectors (Table 1: 16)
	SIMTWidth       int     // execution-pipeline width (Table 1: 16)
	L1Bytes         int     // L1 data cache per SM (Table 1: 16 KB)
	L2Bytes         int     // shared L2 (Table 1: 768 KB)
	MemChannels     int     // DRAM channels (Table 1: 6)
	MaxCycles       uint64  // abort bound; 0 = default
	// Workers is the relaxed loop's host compute-worker count (negative =
	// one per host core; 0 = one). It requires Relaxed: the serial loop
	// takes no workers, and Validate rejects Workers != 0 without Relaxed.
	// Every worker count produces bit-identical results, so Workers only
	// trades wall-clock time. See docs/architecture.md, "Parallel execution
	// model".
	Workers int
	// Relaxed selects the epoch-based relaxed-synchronization loop: workers
	// advance their SMs up to EpochCycles simulated cycles between
	// rendezvous over the shared L2/DRAM system, which is what lets
	// multi-worker simulation scale. Its results are not bit-identical to
	// the serial loop (the oracle) — they carry a small, measured timing
	// delta (see docs/architecture.md, "Relaxed epoch-parallel execution")
	// — but a fixed EpochCycles value is deterministic across repeated runs
	// and every worker count. Unset, the serial loop runs.
	Relaxed bool
	// EpochCycles is the relaxed loop's epoch length in simulated cycles.
	// 0 with Relaxed set takes DefaultEpochCycles; a positive value implies
	// Relaxed (Normalize canonicalizes the pair). Shorter epochs track the
	// serial oracle more closely, longer ones synchronize less often.
	EpochCycles int
	// DisableIdleSkip turns off event-driven idle-cycle skipping (on by
	// default). Skipping never changes simulated results — it fast-forwards
	// over cycles in which no SM could mutate any state — so the flag only
	// exists for benchmarking and validation. See docs/architecture.md,
	// "Performance".
	DisableIdleSkip bool
}

// DefaultConfig returns the Table 1 configuration.
func DefaultConfig() Config {
	return Config{
		NumSMs:          15,
		CoreClockHz:     1.4e9,
		WarpSize:        32,
		SchedulersPerSM: 2,
		MaxWarpsPerSM:   48,
		MaxCTAsPerSM:    8,
		RegFileKB:       128,
		RegFileBanks:    16,
		CollectorsPerSM: 16,
		SIMTWidth:       16,
		L1Bytes:         16 << 10,
		L2Bytes:         768 << 10,
		MemChannels:     6,
	}
}

// toGPU lowers the public config to the internal chip config.
func (c Config) toGPU() gpu.Config {
	g := gpu.DefaultConfig()
	g.NumSMs = c.NumSMs
	g.CoreClockHz = c.CoreClockHz
	g.L2Bytes = c.L2Bytes
	g.MaxCycles = c.MaxCycles
	if c.Relaxed {
		g.EpochCycles = c.EpochCycles
		if g.EpochCycles == 0 {
			g.EpochCycles = DefaultEpochCycles
		}
		g.Workers = c.Workers
	}
	g.DisableIdleSkip = c.DisableIdleSkip
	g.MemTiming.NumChannels = c.MemChannels
	g.SM.WarpSize = c.WarpSize
	g.SM.Schedulers = c.SchedulersPerSM
	g.SM.MaxWarps = c.MaxWarpsPerSM
	g.SM.MaxCTAs = c.MaxCTAsPerSM
	g.SM.NumBanks = c.RegFileBanks
	g.SM.RegFileBytes = c.RegFileKB << 10
	g.SM.NumCollectors = c.CollectorsPerSM
	g.SM.ALUWidth = c.SIMTWidth
	g.SM.MemWidth = c.SIMTWidth
	g.SM.L1Bytes = c.L1Bytes
	return g
}

// Eligibility is the Figure 9 decomposition: fractions of committed
// instructions eligible for each kind of scalar execution.
type Eligibility struct {
	ALU       float64 `json:"alu"`       // non-divergent arithmetic/logic ("ALU scalar")
	SFU       float64 `json:"sfu"`       // special-function, atop ALU scalar
	Mem       float64 `json:"mem"`       // memory, atop ALU scalar
	Half      float64 `json:"half"`      // half-warp scalar (§4.3)
	Divergent float64 `json:"divergent"` // divergent scalar (§4.2)
}

// Total returns the overall scalar-eligible fraction.
func (e Eligibility) Total() float64 { return e.ALU + e.SFU + e.Mem + e.Half + e.Divergent }

// InstMix is the committed warp-instruction class mix: what fraction of
// instructions executed on each pipeline. Drives the SFU-share and
// memory-intensity calibration of generated workloads and the figure
// inputs that bucket instructions by class.
type InstMix struct {
	ALU  float64 `json:"alu"`
	SFU  float64 `json:"sfu"`
	Mem  float64 `json:"mem"`
	Ctrl float64 `json:"ctrl"`
}

// RFAccessDist is the Figure 8 register-file read-class distribution.
type RFAccessDist struct {
	Scalar    float64 `json:"scalar"`
	B3        float64 `json:"b3"`
	B2        float64 `json:"b2"`
	B1        float64 `json:"b1"`
	None      float64 `json:"none"`
	Divergent float64 `json:"divergent"`
}

// Result summarises one simulated launch. The JSON struct tags are a stable
// serialization contract shared by the telemetry exporters and the CLIs'
// machine-readable output; fields may be added, but existing tags do not
// change.
type Result struct {
	Cycles      uint64  `json:"cycles"`
	WarpInsts   uint64  `json:"warp_insts"`
	ThreadInsts uint64  `json:"thread_insts"`
	IPC         float64 `json:"ipc"` // warp instructions per cycle, chip-wide
	PowerW      float64 `json:"power_w"`
	IPCPerW     float64 `json:"ipc_per_w"` // the paper's power-efficiency metric
	EnergyJ     float64 `json:"energy_j"`

	ExecPowerShare float64 `json:"exec_power_share"` // execution-unit share of chip power
	RFPowerShare   float64 `json:"rf_power_share"`   // register-file aggregate share of chip power
	RFDynamicJ     float64 `json:"rf_dynamic_j"`     // RF dynamic energy (Figure 12's metric)

	FracDivergent       float64      `json:"frac_divergent"`        // Figure 1: divergent instructions / total
	FracDivergentScalar float64      `json:"frac_divergent_scalar"` // Figure 1: value-uniform divergent / total
	Eligibility         Eligibility  `json:"eligibility"`
	RFAccess            RFAccessDist `json:"rf_access"`
	InstMix             InstMix      `json:"inst_mix"`
	CompressionRatio    float64      `json:"compression_ratio"`
	MoveOverhead        float64      `json:"move_overhead"` // §3.3 injected decompress moves / total

	L1MissRate       float64 `json:"l1_miss_rate"`
	DRAMTransactions uint64  `json:"dram_transactions"`

	// PowerByComponent maps component names ("exec_alu", "rf_array",
	// "dram", "static", ...) to watts.
	PowerByComponent map[string]float64 `json:"power_by_component"`

	// ExecMode ("serial" or "relaxed") and ResolvedWorkers record how the
	// run actually executed — the chip loop and the resolved compute-worker
	// count (for a RunSequence, the most any launch resolved) — so benches
	// and callers can assert what ran rather than what was requested. They
	// describe the execution, not the simulated machine: every relaxed
	// worker count produces bit-identical simulation outputs.
	ExecMode        string `json:"exec_mode,omitempty"`
	ResolvedWorkers int    `json:"resolved_workers,omitempty"`
}

// resultFrom converts an internal run result.
func resultFrom(r gpu.Result) Result {
	st := &r.Stats
	total := float64(st.WarpInsts)
	if total == 0 {
		total = 1
	}
	out := Result{
		Cycles:      r.Cycles,
		WarpInsts:   st.WarpInsts,
		ThreadInsts: st.ThreadInsts,
		IPC:         r.IPC,
		PowerW:      r.Power.AvgPowerW,
		IPCPerW:     r.IPCPerW,
		EnergyJ:     r.EnergyJ,

		ExecPowerShare: r.Power.ExecShare(),
		RFPowerShare:   r.Power.RFShare(),
		RFDynamicJ: (r.Power.PerComp[power.CompRFArray] +
			r.Power.PerComp[power.CompRFCrossbar] +
			r.Power.PerComp[power.CompRFBVR] +
			r.Power.PerComp[power.CompRFScalarBank] +
			r.Power.PerComp[power.CompCodec]) * r.Power.Seconds,

		FracDivergent:       st.FracDivergent(),
		FracDivergentScalar: st.FracDivergentScalar(),
		Eligibility: Eligibility{
			ALU:       float64(st.EligFullALU) / total,
			SFU:       float64(st.EligFullSFU) / total,
			Mem:       float64(st.EligFullMem) / total,
			Half:      float64(st.EligHalf) / total,
			Divergent: float64(st.EligDiv) / total,
		},
		RFAccess: RFAccessDist{
			Scalar:    st.RFReadFrac(core.AccessScalar),
			B3:        st.RFReadFrac(core.Access3Byte),
			B2:        st.RFReadFrac(core.Access2Byte),
			B1:        st.RFReadFrac(core.Access1Byte),
			None:      st.RFReadFrac(core.AccessNone),
			Divergent: st.RFReadFrac(core.AccessDivergent),
		},
		InstMix: InstMix{
			ALU:  float64(st.ByClass[isa.ClassALU]) / total,
			SFU:  float64(st.ByClass[isa.ClassSFU]) / total,
			Mem:  float64(st.ByClass[isa.ClassMem]) / total,
			Ctrl: float64(st.ByClass[isa.ClassCtrl]) / total,
		},
		CompressionRatio: st.CompressionRatio(),
		MoveOverhead:     st.MoveOverhead(),
		DRAMTransactions: st.DRAMTransactions,
		ExecMode:         r.ExecMode,
		ResolvedWorkers:  r.Workers,
	}
	if st.L1Accesses > 0 {
		out.L1MissRate = float64(st.L1Misses) / float64(st.L1Accesses)
	}
	out.PowerByComponent = make(map[string]float64, power.NumComponents)
	for c := power.Component(0); c < power.NumComponents; c++ {
		out.PowerByComponent[c.String()] = r.Power.PerComp[c]
	}
	return out
}

// kernelLaunch adapts Launch to the internal type.
func (l Launch) toKernel() (*kernel.LaunchConfig, error) {
	if l.GridY == 0 {
		l.GridY = 1
	}
	if l.BlockY == 0 {
		l.BlockY = 1
	}
	lc := &kernel.LaunchConfig{
		Grid:        kernel.Dim{X: l.GridX, Y: l.GridY},
		Block:       kernel.Dim{X: l.BlockX, Y: l.BlockY},
		SharedBytes: l.SharedBytes,
	}
	if len(l.Params) > len(lc.Params) {
		return nil, fmt.Errorf("gscalar: %d params exceeds limit %d", len(l.Params), len(lc.Params))
	}
	copy(lc.Params[:], l.Params)
	return lc, nil
}
