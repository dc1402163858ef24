package gpu

import (
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/sm"
)

// TestTrailingStoreInCollectorDispatches covers an SM whose only remaining
// work is an operand collector: the warp exits in the front end while its
// final store still waits for a register-bank port (r1 and r17 share a
// bank, so the store's two reads serialise). With no writeback pending the
// SM must still report Busy until the store dispatches, or the chip loop
// stops early and the store's L1/L2 traffic, energy and cycles are lost.
// The r2 variant reads from different banks and never hits the window.
func TestTrailingStoreInCollectorDispatches(t *testing.T) {
	for _, data := range []string{"r17", "r2"} {
		src := `
	mov r1, %tid.x
	shl r1, r1, 2
	iadd r1, $0, r1
	mov ` + data + `, %tid.x
	stg [r1], ` + data + `
	exit
`
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range loops {
			mem := kernel.NewMemory()
			lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 32, Y: 1}}
			out := mem.Alloc(32 * 4)
			lc.Params[0] = out
			cfg := DefaultConfig()
			cfg.NumSMs = 1
			cfg.EpochCycles = l.epoch
			cfg.Workers = l.workers
			res, err := Run(cfg, sm.Baseline(), prog, lc, mem)
			if err != nil {
				t.Fatalf("%s/%s: %v", data, l.name, err)
			}
			if res.Stats.L1Accesses != 1 || res.Stats.L2Accesses != 1 {
				t.Errorf("%s/%s: L1Accesses=%d L2Accesses=%d (cycles %d), want 1 and 1",
					data, l.name, res.Stats.L1Accesses, res.Stats.L2Accesses, res.Cycles)
			}
			for i, v := range mem.ReadU32(out, 32) {
				if v != uint32(i) {
					t.Fatalf("%s/%s: out[%d] = %d, want %d", data, l.name, i, v, i)
				}
			}
		}
	}
}
