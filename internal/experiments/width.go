package experiments

import (
	"fmt"

	"gscalar"
	"gscalar/internal/gpu"
	"gscalar/internal/stats"
)

// widthSrc is a synthetic streaming kernel whose loaded operand values are
// confined to a parameterised effective bit-width. Narrow (short/char-like)
// data sign/zero-extends into identical upper bytes, which byte-wise
// compression never reads or writes — the §5.3 discussion ("for data types
// smaller than 4 bytes, our scheme can at least avoid the unnecessary
// access to the sign/zero extended bytes").
const widthSrc = `
.kernel widthsweep
	mov   r1, %tid.x
	imad  r2, %ctaid.x, %ntid.x, r1
	shl   r3, r2, 2
	iadd  r4, $0, r3
	ldg   r5, [r4]                 // value of the configured width
	mov   r6, 0
	mov   r7, 0
LOOP:
	imad  r8, r5, 3, r6            // derived values stay within width+2 bits
	iadd  r9, r8, r5
	and   r9, r9, $2               // re-confine to the data width
	iadd  r7, r7, r9
	iadd  r6, r6, 1
	isetp.lt p0, r6, 8
	@p0 bra LOOP
	iadd  r10, $1, r3
	stg   [r10], r7
	exit
`

// WidthRow is one point of the §5.3 data-width sweep.
type WidthRow struct {
	Bits             int
	RFDynamicVsBase  float64
	CompressionRatio float64
}

// WidthSweep measures RF dynamic power of byte-wise compression relative to
// the baseline register file while sweeping the effective operand width. Its
// runs use a synthetic kernel, not a workload spec, so they are not suite
// points: they run through a Session at the suite's configuration on every
// call and are not memoized.
func (s *Suite) WidthSweep(bits []int) ([]WidthRow, error) {
	prog, err := gscalar.Assemble(widthSrc)
	if err != nil {
		return nil, err
	}
	run := func(arch gscalar.Arch, b int) (gpu.Result, error) {
		var raw gpu.Result
		sess, err := newSession(s.o.Config, arch, nil, &raw)
		if err != nil {
			return raw, err
		}
		launch, mem := widthLaunch(b)
		_, err = sess.Run(s.ctx, prog, launch, mem)
		return raw, err
	}
	var rows []WidthRow
	for _, b := range bits {
		base, err := run(gscalar.Baseline, b)
		if err != nil {
			return nil, err
		}
		rvc, err := run(gscalar.RVCOnly, b)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WidthRow{
			Bits:             b,
			RFDynamicVsBase:  rvc.Power.RFDynamicW() / base.Power.RFDynamicW(),
			CompressionRatio: rvc.Stats.CompressionRatio(),
		})
	}
	return rows, nil
}

// widthLaunch builds the sweep kernel's launch and input memory for operand
// values confined to the given bit width.
func widthLaunch(bits int) (gscalar.Launch, *gscalar.Memory) {
	const ctas = 40
	n := ctas * 256
	mem := gscalar.NewMemory()
	mask := uint32(1)<<uint(bits) - 1
	if bits >= 32 {
		mask = ^uint32(0)
	}
	vals := make([]uint32, n)
	rng := uint32(0x9E3779B9)
	for i := range vals {
		rng = rng*1664525 + 1013904223
		vals[i] = rng & mask
	}
	in := mem.AllocU32(vals)
	out := mem.Alloc(n * 4)
	return gscalar.Launch{GridX: ctas, BlockX: 256, Params: []uint32{in, out, mask}}, mem
}

// FormatWidthSweep renders the §5.3 sweep table.
func FormatWidthSweep(rows []WidthRow) string {
	t := stats.NewTable("data width", "RF dynamic vs baseline", "compression ratio")
	for _, r := range rows {
		t.Row(fmt.Sprintf("%d-bit", r.Bits),
			fmt.Sprintf("%.3f", r.RFDynamicVsBase),
			fmt.Sprintf("%.2f", r.CompressionRatio))
	}
	return "Section 5.3 extension: operand-width sweep\n" +
		"(narrower types leave sign/zero-extended upper bytes identical; byte-wise\n" +
		" compression skips them entirely, so RF power falls with data width)\n" + t.String()
}
