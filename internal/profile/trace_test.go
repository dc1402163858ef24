package profile

import (
	"strings"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
)

const traceSrc = `
.kernel t
	mov r1, %tid.x
	isetp.lt p0, r1, 16
	@p0 bra A
	mov r2, 5
	bra J
A:
	mov r2, 9
J:
	iadd r3, r2, 1
	exit
`

func traceSetup(t *testing.T) (*kernel.Program, *kernel.LaunchConfig, *kernel.Memory) {
	t.Helper()
	prog, err := asm.Assemble(traceSrc)
	if err != nil {
		t.Fatal(err)
	}
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 2, Y: 1}, Block: kernel.Dim{X: 64, Y: 1}}
	return prog, lc, kernel.NewMemory()
}

func TestTraceBasic(t *testing.T) {
	prog, lc, mem := traceSetup(t)
	var b strings.Builder
	if err := Trace(&b, prog, lc, mem, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "[full]") {
		t.Error("no full-mask events")
	}
	if !strings.Contains(out, "D [16/32") {
		t.Errorf("no divergent 16-lane events:\n%s", firstLines(out, 12))
	}
	// Uniform destination rendering.
	if !strings.Contains(out, "(uniform)") {
		t.Error("no uniform destination annotation")
	}
	// Both CTAs appear.
	if !strings.Contains(out, "cta0") || !strings.Contains(out, "cta1") {
		t.Error("missing CTA coverage")
	}
}

func TestTraceTruncation(t *testing.T) {
	prog, lc, mem := traceSetup(t)
	var b strings.Builder
	if err := Trace(&b, prog, lc, mem, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "truncated at 5") {
		t.Errorf("no truncation marker:\n%s", b.String())
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
