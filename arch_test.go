package gscalar

import "testing"

// TestArchSemantics pins what each public architecture is allowed to
// detect: compression-only modes report no scalar eligibility, the prior
// scalar-RF reports ALU-class only, and G-Scalar-no-div reports no
// divergent or half-warp eligibility.
func TestArchSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	cfg := DefaultConfig()
	const bench = "HS" // divergent + SFU + half-free mix

	res := map[Arch]Result{}
	for _, a := range AllArchs() {
		r, err := runWorkloadVia(t, cfg, a, bench, 1)
		if err != nil {
			t.Fatal(err)
		}
		res[a] = r
	}

	if e := res[Baseline].Eligibility.Total(); e != 0 {
		t.Errorf("baseline eligibility = %v", e)
	}
	if e := res[WarpedCompression].Eligibility.Total(); e != 0 {
		t.Errorf("warped-compression eligibility = %v", e)
	}
	if e := res[RVCOnly].Eligibility.Total(); e != 0 {
		t.Errorf("rvc-only eligibility = %v", e)
	}
	alu := res[ALUScalar].Eligibility
	if alu.SFU != 0 || alu.Mem != 0 || alu.Half != 0 || alu.Divergent != 0 {
		t.Errorf("alu-scalar detected beyond ALU class: %+v", alu)
	}
	if alu.ALU == 0 {
		t.Error("alu-scalar detected nothing")
	}
	nod := res[GScalarNoDiv].Eligibility
	if nod.Divergent != 0 || nod.Half != 0 {
		t.Errorf("gscalar-nodiv detected divergent/half: %+v", nod)
	}
	if nod.SFU == 0 {
		t.Error("gscalar-nodiv should cover SFU")
	}
	full := res[GScalar].Eligibility
	if full.Total() <= nod.Total() {
		t.Errorf("G-Scalar (%v) must exceed no-div (%v)", full.Total(), nod.Total())
	}
	if full.Divergent == 0 {
		t.Error("G-Scalar detected no divergent scalar on HS")
	}

	// Compression stats only exist for compressing register files.
	if res[Baseline].CompressionRatio != 1 {
		t.Errorf("baseline compression ratio = %v", res[Baseline].CompressionRatio)
	}
	for _, a := range []Arch{WarpedCompression, RVCOnly, GScalar} {
		if res[a].CompressionRatio <= 1 {
			t.Errorf("%v compression ratio = %v", a, res[a].CompressionRatio)
		}
	}
	// Only compressing architectures pay the +3-cycle pipeline.
	if res[ALUScalar].Cycles >= res[GScalar].Cycles+res[GScalar].Cycles/2 {
		t.Errorf("suspicious cycle counts: alu %d vs gscalar %d",
			res[ALUScalar].Cycles, res[GScalar].Cycles)
	}
}
