package gscalar

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func errorsAs(err error, target any) bool { return errors.As(err, target) }

// newTestSession builds a Session, failing the test on an invalid config.
func newTestSession(t testing.TB, cfg Config, arch Arch) *Session {
	t.Helper()
	s, err := NewSession(cfg, arch)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runWorkloadVia simulates one workload through a fresh Session; it mirrors
// the external test package's helper of the same name.
func runWorkloadVia(t testing.TB, cfg Config, arch Arch, abbr string, scale int) (Result, error) {
	t.Helper()
	return newTestSession(t, cfg, arch).RunWorkload(context.Background(), abbr, scale)
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := DefaultConfig()
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"NumSMs", c.NumSMs, 15},
		{"CoreClockHz", c.CoreClockHz, 1.4e9},
		{"WarpSize", c.WarpSize, 32},
		{"SchedulersPerSM", c.SchedulersPerSM, 2},
		{"threads per SM", c.MaxWarpsPerSM * c.WarpSize, 1536},
		{"MaxCTAsPerSM", c.MaxCTAsPerSM, 8},
		{"RegFileBanks", c.RegFileBanks, 16},
		{"CollectorsPerSM", c.CollectorsPerSM, 16},
		{"SIMTWidth", c.SIMTWidth, 16},
		{"L1Bytes", c.L1Bytes, 16 << 10},
		{"L2Bytes", c.L2Bytes, 768 << 10},
		{"MemChannels", c.MemChannels, 6},
		// 128 KB of registers per SM: 1024 vector registers × 128 B.
		{"registers per SM (KB)", c.RegFileKB, 128},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %v, want %v (Table 1)", ck.name, ck.got, ck.want)
		}
	}
}

func TestArchNames(t *testing.T) {
	want := map[Arch]string{
		Baseline: "baseline", ALUScalar: "alu-scalar",
		WarpedCompression: "warped-compression", RVCOnly: "rvc-only",
		GScalarNoDiv: "gscalar-nodiv", GScalar: "gscalar",
	}
	for a, n := range want {
		if a.String() != n {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), n)
		}
	}
	if len(AllArchs()) != 6 {
		t.Errorf("AllArchs() = %v", AllArchs())
	}
}

func TestRunWorkloadUnknown(t *testing.T) {
	_, err := runWorkloadVia(t, DefaultConfig(), GScalar, "NOPE", 1)
	if err == nil {
		t.Fatal("expected error")
	}
	var uw *UnknownWorkloadError
	if !errorsAs(err, &uw) {
		t.Errorf("error %T is not UnknownWorkloadError", err)
	}
	if !strings.Contains(err.Error(), "NOPE") {
		t.Errorf("error %q does not name the workload", err)
	}
}

func TestWorkloadsTable2(t *testing.T) {
	ws := Workloads()
	if len(ws) != 17 {
		t.Fatalf("workloads = %d, want 17 (Table 2)", len(ws))
	}
	rodinia, parboil := 0, 0
	for _, abbr := range ws {
		info, ok := WorkloadByAbbr(abbr)
		if !ok {
			t.Fatalf("ByAbbr(%q) failed", abbr)
		}
		switch info.Suite {
		case "Rodinia":
			rodinia++
		case "Parboil":
			parboil++
		default:
			t.Errorf("%s: unknown suite %q", abbr, info.Suite)
		}
	}
	if rodinia != 8 || parboil != 9 {
		t.Errorf("suite split = %d/%d, want 8/9", rodinia, parboil)
	}
}

func TestAssembleAndRunCustomKernel(t *testing.T) {
	prog, err := Assemble(`
.kernel double
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl r3, r2, 2
	iadd r4, $0, r3
	ldg r5, [r4]
	imul r5, r5, 2
	stg [r4], r5
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name() != "double" || prog.Len() != 8 {
		t.Fatalf("prog = %s/%d", prog.Name(), prog.Len())
	}
	if !strings.Contains(prog.Disassemble(), "imul") {
		t.Error("disassembly missing instruction")
	}

	const n = 512
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	mem := NewMemory()
	base := mem.AllocU32(vals)
	launch := Launch{GridX: n / 128, BlockX: 128, Params: []uint32{base}}

	cfg := DefaultConfig()
	cfg.NumSMs = 2
	res, err := newTestSession(t, cfg, GScalar).Run(context.Background(), prog, launch, mem)
	if err != nil {
		t.Fatal(err)
	}
	got := mem.ReadU32(base, n)
	for i, v := range got {
		if v != uint32(2*i) {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if res.IPC <= 0 || res.PowerW <= 0 || res.IPCPerW <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestRunFunctionalMatchesTimed(t *testing.T) {
	src := `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	and r3, r2, 7
	imul r4, r3, r3
	shl r5, r2, 2
	iadd r6, $0, r5
	stg [r6], r4
	exit
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	launchFor := func(m *Memory) Launch {
		return Launch{GridX: 2, BlockX: 128, Params: []uint32{m.Alloc(n * 4)}}
	}
	m1 := NewMemory()
	l1 := launchFor(m1)
	if err := RunFunctional(prog, l1, m1); err != nil {
		t.Fatal(err)
	}
	m2 := NewMemory()
	l2 := launchFor(m2)
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	if _, err := newTestSession(t, cfg, Baseline).Run(context.Background(), prog, l2, m2); err != nil {
		t.Fatal(err)
	}
	a := m1.ReadU32(l1.Params[0], n)
	b := m2.ReadU32(l2.Params[0], n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("functional/timed mismatch at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTooManyParams(t *testing.T) {
	prog, err := Assemble("exit")
	if err != nil {
		t.Fatal(err)
	}
	launch := Launch{GridX: 1, BlockX: 32, Params: make([]uint32, 17)}
	if _, err := newTestSession(t, DefaultConfig(), Baseline).Run(context.Background(), prog, launch, NewMemory()); err == nil {
		t.Fatal("expected params-limit error")
	}
}

// TestPowerCalibration pins the component shares the relative results are
// anchored on: on a compute-intensive benchmark, execution units and the
// register file must be the two dominant dynamic consumers with shares in
// the ranges the paper quotes (exec ≈24 %, RF ≈16 % on average; higher for
// compute-intensive codes), and static power must not dominate.
func TestPowerCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload run")
	}
	cfg := DefaultConfig()
	res, err := runWorkloadVia(t, cfg, Baseline, "MM", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecPowerShare < 0.10 || res.ExecPowerShare > 0.50 {
		t.Errorf("MM exec share = %.2f, want 0.10..0.50", res.ExecPowerShare)
	}
	if res.RFPowerShare < 0.08 || res.RFPowerShare > 0.35 {
		t.Errorf("MM RF share = %.2f, want 0.08..0.35", res.RFPowerShare)
	}
	// BP: the paper reports >100 W total and SFU-dominated execution.
	bp, err := runWorkloadVia(t, cfg, Baseline, "BP", 1)
	if err != nil {
		t.Fatal(err)
	}
	if bp.PowerW < 100 {
		t.Errorf("BP baseline power = %.1f W, paper reports >100 W", bp.PowerW)
	}
	if bp.ExecPowerShare < 0.30 {
		t.Errorf("BP exec share = %.2f, want SFU-dominated (>0.30)", bp.ExecPowerShare)
	}
}

// TestHeadlineResults asserts the paper's headline claims hold in shape:
// G-Scalar beats both the baseline and the prior scalar architecture on
// power efficiency, roughly doubles scalar-eligible instructions, and pays
// only a small IPC penalty.
func TestHeadlineResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	cfg := DefaultConfig()
	// A representative subset to keep runtime in check.
	benches := []string{"BP", "HS", "LBM", "MQ", "SAD"}
	var base, alu, full, ipcBase, ipcFull float64
	var aluElig, fullElig float64
	for _, b := range benches {
		rb, err := runWorkloadVia(t, cfg, Baseline, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := runWorkloadVia(t, cfg, ALUScalar, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := runWorkloadVia(t, cfg, GScalar, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		base += rb.IPCPerW
		alu += ra.IPCPerW / rb.IPCPerW
		full += rg.IPCPerW / rb.IPCPerW
		ipcBase += rb.IPC
		ipcFull += rg.IPC / rb.IPC
		aluElig += ra.Eligibility.Total()
		fullElig += rg.Eligibility.Total()
	}
	n := float64(len(benches))
	alu, full, ipcFull = alu/n, full/n, ipcFull/n
	aluElig, fullElig = aluElig/n, fullElig/n

	if full <= 1.0 {
		t.Errorf("G-Scalar IPC/W vs baseline = %.3f, want > 1", full)
	}
	if full <= alu {
		t.Errorf("G-Scalar (%.3f) must beat ALU-scalar (%.3f)", full, alu)
	}
	if fullElig < 1.5*aluElig {
		t.Errorf("eligibility %.1f%% vs ALU-only %.1f%%: paper says G-Scalar ~doubles it",
			100*fullElig, 100*aluElig)
	}
	if ipcFull < 0.90 || ipcFull > 1.02 {
		t.Errorf("G-Scalar IPC ratio = %.3f, want small degradation (paper: -1.7%%)", ipcFull)
	}
}

func TestResultDerivedFields(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	res, err := runWorkloadVia(t, DefaultConfig(), GScalar, "ST", 1)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Eligibility
	sum := e.ALU + e.SFU + e.Mem + e.Half + e.Divergent
	if math.Abs(sum-e.Total()) > 1e-12 {
		t.Errorf("eligibility total mismatch")
	}
	d := res.RFAccess
	total := d.Scalar + d.B3 + d.B2 + d.B1 + d.None + d.Divergent
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("RF access classes sum to %v, want 1", total)
	}
	if res.CompressionRatio <= 1 {
		t.Errorf("compression ratio = %v", res.CompressionRatio)
	}
}
