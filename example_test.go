package gscalar_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"gscalar"
)

// ExampleSession_RunWorkload compares the baseline and G-Scalar
// architectures on a Table 2 benchmark. (Unverified output: absolute
// numbers depend on the power calibration.)
func ExampleSession_RunWorkload() {
	cfg := gscalar.DefaultConfig()
	run := func(arch gscalar.Arch) gscalar.Result {
		s, err := gscalar.NewSession(cfg, arch)
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.RunWorkload(context.Background(), "HS", 1)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base, gs := run(gscalar.Baseline), run(gscalar.GScalar)
	fmt.Printf("power efficiency: %.2fx\n", gs.IPCPerW/base.IPCPerW)
	fmt.Printf("scalar-eligible:  %.0f%%\n", 100*gs.Eligibility.Total())
}

// ExampleAssemble runs a custom kernel end to end.
func ExampleAssemble() {
	prog, err := gscalar.Assemble(`
.kernel triple
	mov  r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl  r3, r2, 2
	iadd r4, $0, r3
	ldg  r5, [r4]
	imul r5, r5, 3
	stg  [r4], r5
	exit
`)
	if err != nil {
		log.Fatal(err)
	}
	mem := gscalar.NewMemory()
	base := mem.AllocU32([]uint32{1, 2, 3, 4})
	launch := gscalar.Launch{GridX: 1, BlockX: 4, Params: []uint32{base}}
	if err := gscalar.RunFunctional(prog, launch, mem); err != nil {
		log.Fatal(err)
	}
	fmt.Println(mem.ReadU32(base, 4))
	// Output: [3 6 9 12]
}

// ExampleTraceKernel prints the first few dynamic instructions of a
// divergent kernel, showing the PDOM execution order.
func ExampleTraceKernel() {
	prog, err := gscalar.Assemble(`
.kernel demo
	mov r1, %laneid
	isetp.lt p0, r1, 2
	@p0 bra A
	mov r2, 5
	bra J
A:
	mov r2, 9
J:
	exit
`)
	if err != nil {
		log.Fatal(err)
	}
	launch := gscalar.Launch{GridX: 1, BlockX: 4}
	if err := gscalar.TraceKernel(os.Stdout, prog, launch, gscalar.NewMemory(), 3); err != nil {
		log.Fatal(err)
	}
	// Output:
	// cta0   w0  pc0      [ 4/32 0000000f]  mov r1, %laneid                 r1=0x0,0x1,0x2,0x3,...
	// cta0   w0  pc1      [ 4/32 0000000f]  isetp.lt p0, r1, 0x2
	// cta0   w0  pc2    D [ 2/32 00000003]  @p0 bra @5
	// ... trace truncated at 3 events
}
