package experiments

import (
	"fmt"

	"gscalar"

	"gscalar/internal/gpu"
	"gscalar/internal/power"
	"gscalar/internal/sm"
	"gscalar/internal/stats"
	"gscalar/internal/workloads"
)

// runCustomArch runs one workload under an arbitrary SM-level architecture
// (for ablations the public Arch enum does not expose). Results are
// memoized like runner.run's, keyed by the full sm.Arch value — all of its
// fields are plain values, so the rendering is a faithful content hash — and
// by the canonical workload key, as PointKey is.
func (s *Suite) runCustomArch(spec string, arch sm.Arch) (gpu.Result, error) {
	src, err := resolve(spec)
	if err != nil {
		return gpu.Result{}, err
	}
	key := fmt.Sprintf("%s|custom:%+v/%s", configKey(s.r.o.Config, s.r.o.Scale), arch, src.Key())
	if v, ok := s.r.cache.get(key); ok {
		return v.(gpu.Result), nil
	}
	inst, err := src.Build(s.r.o.Scale)
	if err != nil {
		return gpu.Result{}, err
	}
	cfg := gpu.DefaultConfig()
	pub := s.r.o.Config
	cfg.NumSMs = pub.NumSMs
	cfg.CoreClockHz = pub.CoreClockHz
	// The chip loop lowers as a pair, as gscalar.Config does: relaxed takes
	// its epoch and workers, serial takes neither.
	if pub.Relaxed {
		cfg.EpochCycles = pub.EpochCycles
		if cfg.EpochCycles == 0 {
			cfg.EpochCycles = gscalar.DefaultEpochCycles
		}
		cfg.Workers = pub.Workers
	}
	res, err := gpu.RunContext(s.r.ctx, cfg, arch, inst.Prog, inst.Launch, inst.Mem)
	if err != nil {
		return res, err
	}
	s.r.cache.put(key, res)
	return res, nil
}

// resolve maps a workload spec onto its source the way Session does: a
// Table 2 abbreviation, "gen:<dials>" or "trace:<path>".
func resolve(spec string) (workloads.Source, error) {
	src, err := workloads.Resolve(spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return src, nil
}

// HalfAblationRow quantifies §4.3's design choice: half-warp scalar
// execution (and its second BVR/EBR set) versus plain G-Scalar.
type HalfAblationRow struct {
	Abbr        string
	WithHalf    float64 // IPC/W vs baseline
	WithoutHalf float64
	HalfElig    float64 // half-scalar instruction fraction
}

// HalfAblation runs G-Scalar with and without half-warp support.
func (s *Suite) HalfAblation() ([]HalfAblationRow, error) {
	noHalf := sm.GScalar()
	noHalf.F.HalfScalar = false
	noHalf.F.HalfCompression = false

	var rows []HalfAblationRow
	for _, abbr := range s.r.o.Workloads {
		base, err := s.r.run(gscalar.Baseline, abbr)
		if err != nil {
			return nil, err
		}
		with, err := s.r.run(gscalar.GScalar, abbr)
		if err != nil {
			return nil, err
		}
		without, err := s.runCustomArch(abbr, noHalf)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HalfAblationRow{
			Abbr:        abbr,
			WithHalf:    with.IPCPerW / base.IPCPerW,
			WithoutHalf: without.IPCPerW / base.IPCPerW,
			HalfElig:    with.Eligibility.Half,
		})
	}
	return rows, nil
}

// FormatHalfAblation renders the §4.3 ablation table.
func FormatHalfAblation(rows []HalfAblationRow) string {
	t := stats.NewTable("bench", "with half", "without half", "half-eligible")
	var w, wo []float64
	for _, r := range rows {
		t.Row(r.Abbr,
			pctx(r.WithHalf), pctx(r.WithoutHalf), pct(r.HalfElig))
		w = append(w, r.WithHalf)
		wo = append(wo, r.WithoutHalf)
	}
	t.Row("MEAN", pctx(mean(w)), pctx(mean(wo)), "")
	return "Section 4.3 ablation: half-warp scalar execution\n" +
		"(hardware cost: second BVR/EBR set grows the RF from 3% to 7%)\n" + t.String()
}

func pctx(v float64) string { return fmt.Sprintf("%.3f", v) }

// ScalarBankRow quantifies §4.1's scalar-storage design choice: the prior
// architecture's single scalar bank serialises scalar-operand bursts, while
// G-Scalar's 16 per-bank BVR arrays do not.
type ScalarBankRow struct {
	Abbr              string
	ConflictsPerKInst float64 // ALU-scalar architecture
	GScalarConflicts  float64 // always 0 by construction
	ALUScalarIPC      float64 // vs baseline
}

// ScalarBankAblation measures the single-bank burst bottleneck.
func (s *Suite) ScalarBankAblation() ([]ScalarBankRow, error) {
	var rows []ScalarBankRow
	for _, abbr := range s.r.o.Workloads {
		base, err := s.r.run(gscalar.Baseline, abbr)
		if err != nil {
			return nil, err
		}
		alu, err := s.runCustomArch(abbr, sm.PriorScalarRF())
		if err != nil {
			return nil, err
		}
		gs, err := s.runCustomArch(abbr, sm.GScalar())
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScalarBankRow{
			Abbr:              abbr,
			ConflictsPerKInst: 1000 * float64(alu.Stats.ScalarBankConflicts) / float64(alu.Stats.WarpInsts),
			GScalarConflicts:  1000 * float64(gs.Stats.ScalarBankConflicts) / float64(gs.Stats.WarpInsts),
			ALUScalarIPC:      alu.IPC / base.IPC,
		})
	}
	return rows, nil
}

// FormatScalarBank renders the §4.1 ablation table.
func FormatScalarBank(rows []ScalarBankRow) string {
	t := stats.NewTable("bench", "1-bank conflicts/kinst", "G-Scalar conflicts", "ALU-scalar IPC")
	var c []float64
	for _, r := range rows {
		t.Row(r.Abbr, r.ConflictsPerKInst, r.GScalarConflicts, r.ALUScalarIPC)
		c = append(c, r.ConflictsPerKInst)
	}
	t.Row("MEAN", mean(c), "", "")
	return "Section 4.1 ablation: single scalar bank vs per-bank BVR arrays\n" +
		"(the prior architecture's scalar bursts serialise on its one bank)\n" + t.String()
}

// CodecCost re-derives the Table 3 chip-cost numbers (used by the Table 3
// bench target).
func CodecCost() power.CodecChipCost { return power.Table3Cost() }
