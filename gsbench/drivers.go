package main

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"gscalar"
	"gscalar/internal/asm"
	"gscalar/internal/core"
	"gscalar/internal/gpu"
	"gscalar/internal/isa"
	"gscalar/internal/kernel"
	"gscalar/internal/mem"
	"gscalar/internal/power"
	"gscalar/internal/regfile"
	"gscalar/internal/sm"
	"gscalar/internal/trace"
	"gscalar/internal/warp"
	"gscalar/internal/workloads"
)

// Layer drivers replay real inputs straight into one layer's public
// functions, for the simulator-internal layers the benchmark cannot split
// by timing Session calls. Every workload's traced run drives the same
// inputs, so the per-layer numbers compare across workloads.

// driverPrograms are the builtins the sm, mem, regfile, core and power
// drivers replay: memory-bound (LBM, MV), compute-bound (MM) and divergent
// (HS) points.
var driverPrograms = []string{"LBM", "MM", "HS", "MV"}

// driverReps is how often each micro-driver replays its input stream; the
// reported figure is the median repetition.
const driverReps = 3

// maxDstSamples bounds the destination vectors kept per program for the
// core driver.
const maxDstSamples = 25000

// sink keeps driver results alive so the compiler cannot drop the calls.
var sink uint64

// capture is one program's recorded execution: the GSTR trace records of
// its serial G-Scalar run and a sample of destination vectors.
type capture struct {
	prog *kernel.Program
	recs []trace.Record
	dsts []dstSample
}

type dstSample struct {
	warp, reg int
	active    warp.Mask
	vec       []uint32
}

func build(abbr string) (*workloads.Instance, error) {
	src, err := workloads.Resolve(abbr)
	if err != nil {
		return nil, err
	}
	return src.Build(1)
}

// gpuConfig is the chip config of a suite loop: Table 1, plus the relaxed
// loop's default epoch and two workers.
func gpuConfig(loop string) gpu.Config {
	g := gpu.DefaultConfig()
	if loop == "relaxed" {
		g.EpochCycles = gscalar.DefaultEpochCycles
		g.Workers = 2
	}
	return g
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// runDrivers runs every layer driver. loop selects the chip loop the gpu
// driver uses.
func runDrivers(e *env, loop string) error {
	r := e.r
	if err := asmDriver(r); err != nil {
		return err
	}
	if err := warpDriver(e); err != nil {
		return err
	}
	if err := gpuDriver(e, loop); err != nil {
		return err
	}
	caps, err := captureAll(e)
	if err != nil {
		return err
	}
	if err := smDriver(e); err != nil {
		return err
	}
	memDriver(r, caps)
	rcs := coreDriver(r, caps)
	regfileDriver(r, caps, rcs)
	powerDriver(r, caps)
	return nil
}

// asmDriver re-assembles every builtin's program from its disassembly.
func asmDriver(r *report) error {
	sp := r.tr.start("drivers.asm", 0, 0)
	defer r.tr.end(sp)
	var us []float64
	for _, abbr := range gscalar.Workloads() {
		inst, err := build(abbr)
		if err != nil {
			return err
		}
		text := asm.Disassemble(inst.Prog)
		for i := 0; i < driverReps; i++ {
			t := time.Now()
			p, err := asm.Assemble(text)
			us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
			if r.check(err == nil, "assemble %s: %v", abbr, err) {
				r.check(asm.Disassemble(p) == text, "%s: re-assembled program differs", abbr)
			}
		}
	}
	r.set("asm.assemble_us", median(us))
	return nil
}

// warpDriver runs every builtin functionally through warp.FuncRun, then
// times the workload's golden check on the output.
func warpDriver(e *env) error {
	r := e.r
	sp := r.tr.start("drivers.warp", 0, 0)
	defer r.tr.end(sp)
	var ns, insts, allocs float64
	var checks []float64
	for _, abbr := range gscalar.Workloads() {
		inst, err := build(abbr)
		if err != nil {
			return err
		}
		a0 := mallocs()
		t := time.Now()
		fr, err := warp.FuncRun(inst.Prog, inst.Launch, inst.Mem, 32, 0)
		d := time.Since(t)
		allocs += float64(mallocs() - a0)
		if !r.check(err == nil, "FuncRun %s: %v", abbr, err) {
			continue
		}
		ns += float64(d.Nanoseconds())
		insts += float64(fr.WarpInsts)
		want := e.digests[digestKey("serial", gscalar.Baseline, abbr)].WarpInsts
		r.check(fr.WarpInsts == want, "FuncRun %s: %d warp insts, the baseline point has %d", abbr, fr.WarpInsts, want)
		if inst.Check != nil {
			t := time.Now()
			err := inst.Check()
			checks = append(checks, ms(time.Since(t)))
			r.check(err == nil, "golden check %s after FuncRun: %v", abbr, err)
		}
	}
	r.set("warp.exec_ns_per_inst", ns/insts)
	r.set("warp.allocs_per_kinst", allocs/(insts/1000))
	r.set("workloads.check_ms", median(checks))
	return nil
}

// gpuDriver times gpu.RunContext on the driver programs under the run's
// chip loop; the simulated cycles must match the untraced points.
func gpuDriver(e *env, loop string) error {
	r := e.r
	var runs []float64
	var ns, cycles float64
	for _, abbr := range driverPrograms {
		inst, err := build(abbr)
		if err != nil {
			return err
		}
		sp := r.tr.start("gpu.RunContext", 0, r.tr.point())
		t := time.Now()
		res, err := gpu.RunContext(context.Background(), gpuConfig(loop), sm.GScalar(), inst.Prog, inst.Launch, inst.Mem)
		d := time.Since(t)
		r.tr.end(sp)
		if !r.check(err == nil, "gpu.RunContext %s: %v", abbr, err) {
			continue
		}
		runs = append(runs, ms(d))
		ns += float64(d.Nanoseconds())
		cycles += float64(res.Cycles)
		want := e.digests[digestKey(loop, gscalar.GScalar, abbr)]
		r.check(res.Cycles == want.Cycles && res.Stats.WarpInsts == want.WarpInsts,
			"gpu.RunContext %s (%s): %d cycles / %d warp insts, the point has %d / %d",
			abbr, loop, res.Cycles, res.Stats.WarpInsts, want.Cycles, want.WarpInsts)
	}
	r.set("gpu.run_ms", median(runs))
	r.set("gpu.ns_per_sim_cycle", ns/cycles)
	return nil
}

// captureAll records a GSTR trace of each driver program's serial G-Scalar
// run, decodes it back to records, and samples destination vectors on the
// way. These runs are set-up for the drivers and are not timed.
func captureAll(e *env) ([]capture, error) {
	r := e.r
	var caps []capture
	for _, abbr := range driverPrograms {
		inst, err := build(abbr)
		if err != nil {
			return nil, err
		}
		c := capture{prog: inst.Prog}
		tc := trace.NewCapture(trace.Meta{Workload: abbr, Arch: gscalar.GScalar.String(), Scale: 1, WarpSize: 32},
			inst.Prog, inst.Launch, inst.Mem)
		cfg := gpu.DefaultConfig()
		cfg.ExecTrace = func(smID, warpID int, out *warp.Outcome) {
			tc.Record(smID, warpID, out)
			if out.DstReg >= 0 && len(c.dsts) < maxDstSamples {
				c.dsts = append(c.dsts, dstSample{warp: warpID, reg: out.DstReg, active: out.Active,
					vec: append([]uint32(nil), out.DstVec...)})
			}
		}
		if _, err := gpu.RunContext(context.Background(), cfg, sm.GScalar(), inst.Prog, inst.Launch, inst.Mem); err != nil {
			return nil, fmt.Errorf("capturing %s: %w", abbr, err)
		}
		var buf bytes.Buffer
		if err := tc.Encode(&buf); err != nil {
			return nil, err
		}
		t, err := trace.Decode(buf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("decoding the %s capture: %w", abbr, err)
		}
		if c.recs, err = t.Records(); err != nil {
			return nil, err
		}
		want := e.digests[digestKey("serial", gscalar.GScalar, abbr)].WarpInsts
		r.check(uint64(len(c.recs)) == want, "%s capture: %d records, the point has %d warp insts", abbr, len(c.recs), want)
		caps = append(caps, c)
	}
	return caps, nil
}

// smDriver drives one SM through every CTA of each driver program with
// sm.New/LaunchCTA/NextEventCycle/Cycle, skipping idle stretches as the chip
// loops do.
func smDriver(e *env) error {
	r := e.r
	sp := r.tr.start("drivers.sm", 0, 0)
	defer r.tr.end(sp)
	var ns, calls, useful, insts, allocs float64
	for _, abbr := range driverPrograms {
		inst, err := build(abbr)
		if err != nil {
			return err
		}
		var meter power.Meter
		msys := mem.NewSystem(mem.DefaultTiming(), gscalar.DefaultConfig().L2Bytes)
		s := sm.New(0, sm.DefaultConfig(), sm.GScalar(), power.DefaultEnergies(), inst.Prog, inst.Launch, inst.Mem, msys, &meter)
		ctas := inst.Launch.Grid.Count()
		const limit = 200_000_000
		var cycle uint64
		var n, u float64
		next := 0
		a0 := mallocs()
		t := time.Now()
		for {
			for next < ctas && s.CanTakeCTA() {
				s.LaunchCTA(next)
				next++
			}
			if c, ok := s.NextEventCycle(); ok && c != sm.NoEvent && c > cycle {
				cycle = c
			}
			before := s.Retired()
			s.Cycle(cycle)
			n++
			if s.Retired() > before {
				u++
			}
			cycle++
			if s.Err() != nil || (!s.Busy() && next >= ctas) || cycle > limit {
				break
			}
		}
		d := time.Since(t)
		allocs += float64(mallocs() - a0)
		want := e.digests[digestKey("serial", gscalar.GScalar, abbr)].WarpInsts
		if !r.check(s.Err() == nil && cycle <= limit, "sm driver %s: err=%v at cycle %d", abbr, s.Err(), cycle) {
			continue
		}
		r.check(s.Stats().WarpInsts == want, "sm driver %s: %d warp insts, the point has %d", abbr, s.Stats().WarpInsts, want)
		ns += float64(d.Nanoseconds())
		calls += n
		useful += u
		insts += float64(s.Stats().WarpInsts)
	}
	r.set("sm.cycle_ns", ns/calls)
	r.set("sm.ns_per_warp_inst", ns/insts)
	r.set("sm.allocs_per_kcycle", allocs/(calls/1000))
	r.set("sm.useful_cycle_frac", useful/calls)
	return nil
}

// timeReps runs f driverReps times and returns the median ns per op, where
// f reports how many operations it performed.
func timeReps(f func() int) float64 {
	var per []float64
	for i := 0; i < driverReps; i++ {
		t := time.Now()
		n := f()
		if n > 0 {
			per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
		}
	}
	return median(per)
}

type lineAccess struct {
	line  uint32
	write bool
}

// memDriver replays the captured global-memory address streams through
// coalescing, the L1, the L2/DRAM system, and the relaxed loop's latency
// estimate and deferred commit.
func memDriver(r *report, caps []capture) {
	sp := r.tr.start("drivers.mem", 0, 0)
	defer r.tr.end(sp)
	type access struct {
		lanes  []uint32
		active uint64
		write  bool
	}
	var accs []access
	for _, c := range caps {
		for _, rec := range c.recs {
			if !rec.IsMem || !rec.IsGlobal {
				continue
			}
			lanes := make([]uint32, 32)
			k := 0
			for m := rec.Active; m != 0; m &= m - 1 {
				lanes[bits.TrailingZeros64(m)] = rec.Addrs[k]
				k++
			}
			accs = append(accs, access{lanes, rec.Active, rec.IsStore})
		}
	}
	cfg := sm.DefaultConfig()
	l2Bytes := gscalar.DefaultConfig().L2Bytes
	var lines, misses []lineAccess
	for _, a := range accs {
		for _, l := range mem.Coalesce(a.lanes, a.active) {
			lines = append(lines, lineAccess{l, a.write})
		}
	}
	probe := mem.NewCache(cfg.L1Bytes, cfg.L1Assoc)
	for _, l := range lines {
		if !probe.Lookup(l.line, !l.write) {
			misses = append(misses, l)
		}
	}

	a0 := mallocs()
	ops := 0
	buf := make([]uint32, 0, 32)
	r.set("mem.coalesce_ns", timeReps(func() int {
		for _, a := range accs {
			buf = mem.CoalesceInto(buf[:0], a.lanes, a.active)
			sink += uint64(len(buf))
		}
		ops += len(accs)
		return len(accs)
	}))
	caches := make([]*mem.Cache, driverReps)
	for i := range caches {
		caches[i] = mem.NewCache(cfg.L1Bytes, cfg.L1Assoc)
	}
	rep := 0
	r.set("mem.l1_lookup_ns", timeReps(func() int {
		c := caches[rep]
		rep++
		for _, l := range lines {
			if c.Lookup(l.line, !l.write) {
				sink++
			}
		}
		ops += len(lines)
		return len(lines)
	}))
	systems := make([]*mem.System, driverReps)
	for i := range systems {
		systems[i] = mem.NewSystem(mem.DefaultTiming(), l2Bytes)
	}
	rep = 0
	r.set("mem.l2_access_ns", timeReps(func() int {
		s := systems[rep]
		rep++
		for i, l := range misses {
			done, _ := s.AccessL2(uint64(2*i), l.line, l.write)
			sink += done
		}
		ops += len(misses)
		return len(misses)
	}))
	rep = 0
	r.set("mem.estimate_ns", timeReps(func() int {
		s := systems[rep]
		rep++
		now := uint64(2 * len(misses))
		for _, l := range misses {
			sink += s.EstimateAccess(now, l.line)
		}
		ops += len(misses)
		return len(misses)
	}))
	for i := range systems {
		systems[i] = mem.NewSystem(mem.DefaultTiming(), l2Bytes)
	}
	var txb mem.TxBuffer
	rep = 0
	r.set("mem.commit_deferred_ns", timeReps(func() int {
		s := systems[rep]
		rep++
		const epoch = 64 // transactions per commit, one epoch's worth
		for i, l := range misses {
			txb.Defer(uint64(2*i), l.line, l.write)
			if txb.Len() == epoch || i == len(misses)-1 {
				s.CommitDeferred(&txb, nil)
			}
		}
		ops += len(misses)
		return len(misses)
	}))
	r.set("mem.allocs_per_op", float64(mallocs()-a0)/float64(ops))
}

// coreDriver replays the sampled destination vectors through the codec and
// the per-warp register metadata; it returns the read costs the regfile
// driver composes.
func coreDriver(r *report, caps []capture) []readSample {
	sp := r.tr.start("drivers.core", 0, 0)
	defer r.tr.end(sp)
	f := core.GScalarFeatures()
	live := warp.FullMask(32)
	var all []dstSample
	numRegs := 0
	for _, c := range caps {
		all = append(all, c.dsts...)
		if c.prog.NumRegs > numRegs {
			numRegs = c.prog.NumRegs
		}
	}
	type keyed struct {
		wr *core.WarpRegs
		d  dstSample
	}
	// bind pairs every sample with its warp's metadata file: a fresh file
	// per (program, warp), built outside the timed loops.
	bind := func() []keyed {
		m := map[[2]int]*core.WarpRegs{}
		var out []keyed
		for ci, c := range caps {
			for _, d := range c.dsts {
				k := [2]int{ci, d.warp}
				if m[k] == nil {
					m[k] = core.NewWarpRegs(numRegs, isa.NumPreds, 32, live)
				}
				out = append(out, keyed{m[k], d})
			}
		}
		return out
	}

	a0 := mallocs()
	ops := 0
	r.set("core.compress_ns", timeReps(func() int {
		for _, d := range all {
			sink += uint64(core.Compress(d.vec, d.active).StoredBits())
		}
		ops += len(all)
		return len(all)
	}))
	r.set("core.same_msb_ns", timeReps(func() int {
		for _, d := range all {
			sink += uint64(core.SameMSBBytes(d.vec, d.active))
		}
		ops += len(all)
		return len(all)
	}))
	aMid := mallocs()
	binds := make([][]keyed, driverReps)
	for i := range binds {
		binds[i] = bind()
	}
	a1 := mallocs()
	rep := 0
	r.set("core.onwrite_ns", timeReps(func() int {
		ks := binds[rep]
		rep++
		for _, k := range ks {
			sink += uint64(k.wr.OnWrite(k.d.reg, k.d.vec, k.d.active, f, false).ArraysWritten)
		}
		ops += len(ks)
		return len(ks)
	}))
	r.set("core.allocs_per_op", float64(aMid-a0+mallocs()-a1)/float64(ops))

	// Read costs for the regfile driver: each written register read back.
	var reads []readSample
	for _, k := range bind() {
		k.wr.OnWrite(k.d.reg, k.d.vec, k.d.active, f, false)
		reads = append(reads, readSample{warp: k.d.warp, reg: uint8(k.d.reg), rc: k.wr.OnRead(k.d.reg, k.d.active, f, false)})
	}
	return reads
}

type readSample struct {
	warp int
	reg  uint8
	rc   core.ReadCost
}

// regfileDriver arbitrates the captured source-operand stream for register
// banks (one arbitration cycle per warp instruction) and composes the read
// accesses of the sampled register reads.
func regfileDriver(r *report, caps []capture, reads []readSample) {
	sp := r.tr.start("drivers.regfile", 0, 0)
	defer r.tr.end(sp)
	const banks = 16
	type operand struct {
		reg  uint8
		warp int
		last bool // last source of its instruction
	}
	var opds []operand
	var srcs []uint8
	for _, c := range caps {
		for _, rec := range c.recs {
			srcs = c.prog.Code[rec.PC].SourceRegs(srcs[:0])
			for i, reg := range srcs {
				opds = append(opds, operand{reg, rec.Warp, i == len(srcs)-1})
			}
		}
	}
	en := power.DefaultEnergies()
	a0 := mallocs()
	ops := 0
	f := regfile.New(banks)
	r.set("regfile.tryserve_ns", timeReps(func() int {
		for _, o := range opds {
			if f.TryServe(regfile.BankOf(o.reg, o.warp, banks), regfile.PortMain) {
				sink++
			}
			if o.last {
				f.NewCycle()
			}
		}
		ops += len(opds)
		return len(opds)
	}))
	r.set("regfile.read_access_ns", timeReps(func() int {
		for _, s := range reads {
			a := regfile.ReadAccess(s.reg, s.warp, banks, s.rc, en)
			sink += uint64(a.XbarBytes)
		}
		ops += len(reads)
		return len(reads)
	}))
	r.set("regfile.allocs_per_op", float64(mallocs()-a0)/float64(ops))
}

// powerDriver books the captured instruction stream's per-lane energies into
// a power.Meter — the same Add/AddN traffic the SMs generate — and times
// Finish.
func powerDriver(r *report, caps []capture) {
	sp := r.tr.start("drivers.power", 0, 0)
	defer r.tr.end(sp)
	en := power.DefaultEnergies()
	type booking struct {
		comp  power.Component
		lanes int
		pJ    float64
	}
	var bk []booking
	for _, c := range caps {
		for _, rec := range c.recs {
			lanes := bits.OnesCount64(rec.Active)
			switch c.prog.Code[rec.PC].Class() {
			case isa.ClassSFU:
				bk = append(bk, booking{power.CompExecSFU, lanes, en.LaneSFU})
			case isa.ClassMem:
				bk = append(bk, booking{power.CompLSU, lanes, en.AGUPerLane})
			default:
				bk = append(bk, booking{power.CompExecALU, lanes, en.LaneInt})
			}
		}
	}
	a0 := mallocs()
	ops := 0
	var m power.Meter
	r.set("power.add_ns", timeReps(func() int {
		for _, b := range bk {
			m.Add(power.CompFrontEnd, en.FrontEndPerInst)
			m.AddN(b.comp, b.lanes, b.pJ)
		}
		ops += 2 * len(bk)
		return 2 * len(bk)
	}))
	const finishes = 10000
	var bd power.Breakdown
	r.set("power.finish_us", timeReps(func() int {
		for i := 0; i < finishes; i++ {
			bd = m.Finish(uint64(100_000+i), 1.4e9, en.StaticW(15, true))
		}
		ops += finishes
		return finishes
	})/1e3)
	sink += uint64(bd.AvgPowerW)
	r.set("power.allocs_per_op", float64(mallocs()-a0)/float64(ops))
}
