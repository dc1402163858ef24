package profile

import (
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
)

func TestProfileCountsAndListing(t *testing.T) {
	prog, err := asm.Assemble(`
.kernel prof
	mov r1, %tid.x
	mov r2, 0
LOOP:
	iadd r2, r2, 1
	isetp.lt p0, r2, 4
	@p0 bra LOOP
	and r3, r1, 1
	isetp.eq p1, r3, 0
	@p1 bra EVEN
	imul r4, r1, 3
	bra J
EVEN:
	iadd r4, r1, 7
J:
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 2, Y: 1}, Block: kernel.Dim{X: 64, Y: 1}}
	p, err := Run(prog, lc, kernel.NewMemory(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// 4 warps total; the loop body executes 4x per warp.
	if got := p.PCs[2].Execs; got != 16 {
		t.Errorf("loop body execs = %d, want 16", got)
	}
	// The loop counter increments are value-uniform.
	if p.PCs[2].ValueUniform != p.PCs[2].Execs {
		t.Errorf("loop counter not value-uniform: %+v", p.PCs[2])
	}
	// The even/odd sides run divergently with 32 of 64... lanes split per
	// warp of 32: 16 active each.
	if p.PCs[8].Divergent != p.PCs[8].Execs {
		t.Errorf("branch side not divergent: %+v", p.PCs[8])
	}
	if lanes := float64(p.PCs[8].Lanes) / float64(p.PCs[8].Execs); lanes != 16 {
		t.Errorf("branch side lanes = %v, want 16", lanes)
	}

	const wantListing = `prof: 84 warp-insts, 2304 thread-insts
   pc       execs  lanes   div%   uni%  static  instruction
    0           4   32.0     0%     0%  -       mov r1, %tid.x
    1           4   32.0     0%   100%  unif    mov r2, 0x0
    2          16   32.0     0%   100%  unif    iadd r2, r2, 0x1
    3          16   32.0     0%   100%  unif    isetp.lt p0, r2, 0x4
    4          16   24.0    25%     0%  -       @p0 bra @2
    5           4   32.0     0%     0%  -       and r3, r1, 0x1
    6           4   32.0     0%     0%  -       isetp.eq p1, r3, 0x0
    7           4   16.0   100%     0%  div     @p1 bra @10
    8           4   16.0   100%     0%  div     imul r4, r1, 0x3
    9           4   16.0   100%     0%  div     bra @11
   10           4   16.0   100%     0%  div     iadd r4, r1, 0x7
   11           4   32.0     0%     0%  -       exit
`
	if lst := p.Listing(); lst != wantListing {
		t.Errorf("listing:\n%s\nwant:\n%s", lst, wantListing)
	}

	sum := p.Summarise()
	if sum.FracDivergent <= 0 || sum.FracDivergent >= 1 {
		t.Errorf("divergent frac = %v", sum.FracDivergent)
	}
	if sum.FracValueUniform <= 0 {
		t.Errorf("uniform frac = %v", sum.FracValueUniform)
	}
	// The static analysis can only claim a subset of the dynamic truth.
	if sum.FracStaticUniform > sum.FracValueUniform+1e-9 {
		t.Errorf("static %v exceeds dynamic %v", sum.FracStaticUniform, sum.FracValueUniform)
	}

	hot := p.Hot(3)
	if len(hot) != 3 || p.PCs[hot[0]].Execs < p.PCs[hot[1]].Execs {
		t.Errorf("hot list broken: %v", hot)
	}
}

func TestProfileRunawayGuard(t *testing.T) {
	prog, err := asm.Assemble("LOOP:\nbra LOOP\n")
	if err != nil {
		t.Fatal(err)
	}
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 32, Y: 1}}
	if _, err := Run(prog, lc, kernel.NewMemory(), 100); err == nil {
		t.Fatal("expected budget error")
	}
}
