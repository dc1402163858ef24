package sm

import (
	"fmt"
	"math/bits"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/mem"
	"gscalar/internal/power"
	"gscalar/internal/warp"
)

// checkInvariants recomputes the SM's incrementally maintained issue and
// writeback bookkeeping by brute force and reports the first mismatch.
func (s *SM) checkInvariants() error {
	inFlight := make([]int, len(s.warps))
	for i := range s.collectors {
		if s.collectors[i].valid {
			inFlight[s.collectors[i].wi]++
		}
	}
	next := NoEvent
	for _, r := range s.events {
		inFlight[s.evPool[r.idx].wi]++
		next = min(next, r.done)
	}
	ready := 0
	for wi := range s.warps {
		wc := &s.warps[wi]
		// The issue stage skips a warp whose bit is clear, so the bit
		// must be set exactly when tryIssueWarp could issue from it.
		issuable := wc.valid && !wc.done && !wc.scoreStalled && wc.w.Status() == warp.StatusReady
		if s.isReady(wi) != issuable {
			return fmt.Errorf("warp %d: readyBits bit %v, but valid=%v done=%v scoreStalled=%v status=%v",
				wi, s.isReady(wi), wc.valid, wc.done, wc.scoreStalled, wc.w.Status())
		}
		if issuable {
			ready++
		}
		if wc.inFlight != inFlight[wi] {
			return fmt.Errorf("warp %d: inFlight %d, collectors+events hold %d", wi, wc.inFlight, inFlight[wi])
		}
	}
	bitsSet := 0
	for _, w := range s.readyBits {
		bitsSet += bits.OnesCount64(w)
	}
	if s.readyWarps != ready || s.readyWarps != bitsSet {
		return fmt.Errorf("readyWarps %d, issuable warps %d, readyBits set %d", s.readyWarps, ready, bitsSet)
	}
	if s.nextWb != next {
		return fmt.Errorf("nextWb %d, earliest pending event %d", s.nextWb, next)
	}
	if inUse := len(s.evPool) - len(s.evFree); inUse != len(s.events) {
		return fmt.Errorf("event pool has %d slots in use, %d events pending", inUse, len(s.events))
	}
	return nil
}

// moveLoopSrc writes r6 warp-uniformly (compressing it) and then updates it
// under a guard that holds on the even lanes only, so on G-Scalar every
// iteration injects a §3.3 decompressing move.
const moveLoopSrc = `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl r3, r2, 2
	iadd r4, $0, r3
	and r7, r1, 1
	isetp.eq p1, r7, 0
	mov r5, 0
A:
	mov r6, 7
	@p1 iadd r6, r6, r1
	stg [r4], r6
	iadd r5, r5, 1
	isetp.lt p0, r5, 2000
	@p0 bra A
	exit
`

// barrierSrc exchanges values through shared memory across a bar.sync in
// every iteration, so warps park at the barrier with loads in flight.
const barrierSrc = `
	mov r1, %tid.x
	shl r2, r1, 2
	imad r3, %ctaid.x, %ntid.x, r1
	shl r3, r3, 2
	iadd r3, $0, r3
	mov r5, 0
A:
	ldg r6, [r3]
	sts [r2], r6
	bar
	mov r7, %ntid.x
	isub r7, r7, r1
	iadd r7, r7, -1
	shl r7, r7, 2
	lds r8, [r7]
	iadd r8, r8, 1
	bar
	stg [r3], r8
	iadd r5, r5, 1
	isetp.lt p0, r5, 50
	@p0 bra A
	exit
`

// TestSMInvariantsEveryCycle runs kernels covering the scoreboard and
// memory path, injected moves and barriers under both schedulers on the
// baseline and G-Scalar, checking the SM's bookkeeping after every cycle.
func TestSMInvariantsEveryCycle(t *testing.T) {
	kernels := []struct {
		name string
		src  string
		ctas int
	}{
		{"loop", loopSrc, 4},
		{"moves", moveLoopSrc, 4},
		{"barrier", barrierSrc, 8},
	}
	archs := []struct {
		name string
		arch Arch
	}{{"baseline", Baseline()}, {"gscalar", GScalar()}}
	scheds := []struct {
		name string
		pol  SchedPolicy
	}{{"gto", SchedGTO}, {"lrr", SchedLRR}}
	for _, k := range kernels {
		prog, err := asm.Assemble(k.src)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		for _, a := range archs {
			for _, sc := range scheds {
				name := k.name + "/" + a.name + "/" + sc.name
				t.Run(name, func(t *testing.T) {
					gmem := kernel.NewMemory()
					lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: k.ctas, Y: 1}, Block: kernel.Dim{X: 128, Y: 1}, SharedBytes: 128 * 4}
					lc.Params[0] = gmem.Alloc(k.ctas * 128 * 4)
					cfg := DefaultConfig()
					cfg.Sched = sc.pol
					var meter power.Meter
					msys := mem.NewSystem(mem.DefaultTiming(), 768<<10)
					s := New(0, cfg, a.arch, power.DefaultEnergies(), prog, lc, gmem, msys, &meter)
					next := 0
					for cycle := uint64(0); ; cycle++ {
						if cycle >= 2_000_000 {
							t.Fatalf("SM did not drain: %s", s.DebugState())
						}
						for next < k.ctas && s.CanTakeCTA() {
							s.LaunchCTA(next)
							next++
						}
						s.Cycle(cycle)
						if err := s.Err(); err != nil {
							t.Fatal(err)
						}
						if err := s.checkInvariants(); err != nil {
							t.Fatalf("cycle %d: %v", cycle, err)
						}
						if !s.Busy() && next >= k.ctas {
							break
						}
					}
					if k.name == "moves" && a.name == "gscalar" && s.Stats().InjectedMoves == 0 {
						t.Error("move kernel injected no moves on G-Scalar")
					}
				})
			}
		}
	}
}
