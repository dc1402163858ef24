package sm

import (
	"gscalar/internal/core"
	"gscalar/internal/isa"
	"gscalar/internal/mem"
	"gscalar/internal/power"
	"gscalar/internal/regfile"
	"gscalar/internal/warp"
)

// serveCollectors arbitrates register-bank ports among operand collectors
// and dispatches entries whose operands are complete to the execution
// units. Each bank serves one main-array access and one BVR/EBR access per
// cycle (§4.1: the BVR arrays effectively provide 16 banks for scalar
// values); the Gilani baseline's scalar bank serves a single access per
// cycle SM-wide (the burst bottleneck).
func (s *SM) serveCollectors() {
	s.rf.NewCycle()

	for ci := range s.collectors {
		ce := &s.collectors[ci]
		if !ce.valid {
			continue
		}
		remaining := ce.reads[:0]
		for _, r := range ce.reads {
			if s.serveRead(r) {
				continue
			}
			remaining = append(remaining, r)
		}
		ce.reads = remaining
		if len(ce.reads) == 0 {
			s.dispatch(ci)
		}
	}
}

// serveRead attempts one register read this cycle; it reports whether the
// read was served and deposits its energy if so.
func (s *SM) serveRead(r regfile.Access) bool {
	if !s.rf.TryServe(r.Bank, r.Port) {
		if r.Port == regfile.PortScalarBank {
			s.st.ScalarBankConflicts++
		}
		return false
	}
	if r.Port == regfile.PortScalarBank {
		s.meter.Add(power.CompRFScalarBank, r.ArrayPJ)
	} else {
		s.meter.Add(power.CompRFArray, r.ArrayPJ)
	}
	if r.BVRPJ > 0 {
		s.meter.Add(power.CompRFBVR, r.BVRPJ)
	}
	s.meter.AddN(power.CompRFCrossbar, r.XbarBytes, s.en.RFCrossbarByte)
	if r.Decompress {
		s.meter.Add(power.CompCodec, s.en.DecompressorUse)
	}
	return true
}

// scalarLanes returns how many execution lanes the instruction activates.
func (ce *collectorEntry) scalarLanes(width int) int {
	switch {
	case ce.isMove:
		return 0 // the move is a register-file operation, not a lane op
	case ce.srfScalar, ce.elig == core.EligibleFull, ce.elig == core.EligibleDivergent:
		return 1
	case ce.elig == core.EligibleHalf:
		return core.Groups(width)
	}
	return warp.PopCount(ce.out.Active)
}

// occupancy returns how many cycles the instruction holds its unit's
// dispatch port: a warp is fed over ceil(warpSize/width) cycles, and
// unpipelined iterative divides block longer (the multiplier is decoded
// once into the collector's occMul). Scalar execution does NOT shorten the
// occupancy: G-Scalar clock-gates all but one lane of the existing dispatch
// slots (§4.1), trading energy — not throughput — which is why the paper
// reports a small net IPC *loss* (the +3-cycle latency) rather than a
// speedup.
func (s *SM) occupancy(ce *collectorEntry, unitWidth int) uint64 {
	occ := uint64((s.cfg.WarpSize + unitWidth - 1) / unitWidth)
	return occ * uint64(ce.occMul)
}

// dispatch sends a completed collector entry to its execution unit.
func (s *SM) dispatch(ci int) {
	ce := &s.collectors[ci]

	class := ce.class
	var unit, width int
	switch {
	case ce.isMove:
		unit, width = s.freeALU(), s.cfg.ALUWidth
	case class == isa.ClassSFU:
		unit, width = s.unitSFU(), s.cfg.SFUWidth
	case class == isa.ClassMem:
		unit, width = s.unitMem(), s.cfg.MemWidth
	default:
		unit, width = s.freeALU(), s.cfg.ALUWidth
	}
	if unit < 0 || s.unitBusy[unit] > s.now {
		s.st.IssueStallUnit++
		return
	}

	occ := s.occupancy(ce, width)
	extra := uint64(s.arch.ExtraLatency)

	var done uint64
	mshrs := 0
	if class == isa.ClassMem && !ce.isMove {
		var ok bool
		done, mshrs, ok = s.dispatchMem(ce, occ, extra)
		if !ok {
			s.st.IssueStallUnit++
			return // MSHRs full; retry next cycle
		}
	} else {
		done = s.now + occ + uint64(basePipeDepth) + uint64(ce.latency) + extra
		s.execEnergy(ce, class)
	}

	// Only a successful dispatch takes an event-pool slot.
	idx := s.allocEvent()
	ev := &s.evPool[idx]
	ev.inst, ev.dstVec, ev.active = ce.out.Inst, ce.out.DstVec, ce.out.Active
	ev.wi, ev.mshrs, ev.elig = ce.wi, mshrs, ce.elig
	ev.isMove, ev.predUniform, ev.moveReg = ce.isMove, ce.predUniform, ce.moveReg

	s.unitBusy[unit] = s.now + occ
	s.events = append(s.events, wbRef{done: done, idx: idx})
	if done < s.nextWb {
		s.nextWb = done
	}
	ce.valid = false
	s.collRelease(ci)
	s.liveCollectors--
}

// allocEvent takes a slot of the event pool, recycling a released one when
// available.
func (s *SM) allocEvent() int32 {
	if n := len(s.evFree); n > 0 {
		idx := s.evFree[n-1]
		s.evFree = s.evFree[:n-1]
		return idx
	}
	s.evPool = append(s.evPool, wbEvent{})
	return int32(len(s.evPool) - 1)
}

// freeALU returns a free ALU pipeline index, or -1.
func (s *SM) freeALU() int {
	for u := 0; u < s.cfg.ALUUnits; u++ {
		if s.unitBusy[u] <= s.now {
			return u
		}
	}
	return -1
}

// execEnergy deposits the execution-lane energy of a non-memory
// instruction. Per-lane clock gating means only active lanes consume; a
// scalar execution activates one lane (two for half-warp scalar).
func (s *SM) execEnergy(ce *collectorEntry, class isa.Class) {
	if ce.isMove || ce.out.Inst == nil {
		return
	}
	lanes := ce.scalarLanes(s.cfg.WarpSize)
	comp := power.CompExecALU
	e := s.en.LaneInt
	switch {
	case class == isa.ClassSFU:
		comp, e = power.CompExecSFU, s.en.LaneSFU
	case isFloatOp(ce.out.Inst.Op):
		e = s.en.LaneFP
	case ce.out.Inst.Op == isa.OpIDiv || ce.out.Inst.Op == isa.OpIRem:
		e = s.en.LaneDiv
	}
	s.meter.AddN(comp, lanes, e)
}

func isFloatOp(op isa.Opcode) bool {
	return op >= isa.OpFAdd && op <= isa.OpF2I
}

// fillGet looks up an in-flight fill of line.
func (s *SM) fillGet(line uint32) (uint64, bool) {
	for i := range s.fills {
		if s.fills[i].line == line {
			return s.fills[i].done, true
		}
	}
	return 0, false
}

// fillDelete removes the fill entry for line, if any.
func (s *SM) fillDelete(line uint32) {
	for i := range s.fills {
		if s.fills[i].line == line {
			last := len(s.fills) - 1
			s.fills[i] = s.fills[last]
			s.fills = s.fills[:last]
			return
		}
	}
}

// fillPut records (or refreshes) the fill completion time of line. Before
// growing the list it prunes fills that have already landed — a landed fill
// can never raise a later access's completion time (every new access
// completes strictly after now), so pruning is unobservable and bounds the
// list by the MSHR count.
func (s *SM) fillPut(line uint32, done uint64) {
	for i := range s.fills {
		if s.fills[i].line == line {
			s.fills[i].done = done
			return
		}
	}
	kept := s.fills[:0]
	for _, f := range s.fills {
		if f.done > s.now {
			kept = append(kept, f)
		}
	}
	s.fills = append(kept, lineFill{line: line, done: done})
}

// dispatchMem models the memory pipeline: address generation, coalescing,
// L1, and the shared L2/DRAM system. It returns the completion cycle and
// the number of MSHRs held (for loads). In relaxed mode, beyond-L1
// transactions take an estimated completion time and are deferred into
// s.epochTx for CommitEpoch to apply at the epoch rendezvous.
func (s *SM) dispatchMem(ce *collectorEntry, occ, extra uint64) (done uint64, mshrs int, ok bool) {
	in := ce.out.Inst
	t := s.msys.Timing()

	// Address generation: one AGU lane per active lane; scalar memory
	// instructions compute a single address (§5.2).
	agus := ce.scalarLanes(s.cfg.WarpSize)
	s.meter.AddN(power.CompLSU, agus, s.en.AGUPerLane)

	if !in.IsGlobalMem() {
		s.meter.Add(power.CompSharedMem, s.en.SharedAccess)
		return s.now + occ + uint64(t.SharedLatency) + extra, 0, true
	}

	// The line list is computed once per instruction and cached in the
	// collector entry; dispatch retries (unit busy, MSHRs full) reuse it, so
	// a long stall does not re-coalesce the same addresses every cycle.
	if !ce.linesOK {
		ce.lines = mem.CoalesceInto(ce.lines, ce.out.Addrs, ce.out.Active)
		ce.linesOK = true
	}
	txs := ce.lines
	isLoad := in.IsLoad()
	// A request larger than the whole MSHR file (possible with wide warps
	// and fully-diverged gathers) must still make progress: it dispatches
	// once the file has drained.
	if isLoad && s.outstanding > 0 && s.outstanding+len(txs) > s.cfg.MaxMSHRs {
		return 0, 0, false
	}

	latest := s.now + occ
	for _, line := range txs {
		s.st.L1Accesses++
		s.meter.Add(power.CompL1, s.en.L1Access)
		var txDone uint64
		if isLoad {
			if s.l1.Lookup(line, true) {
				txDone = s.now + occ + uint64(t.L1HitLatency)
				// MSHR merging: the line may still be in flight from an
				// earlier miss; the merged access waits for the fill.
				if fill, ok := s.fillGet(line); ok {
					if fill > txDone {
						txDone = fill
						s.st.MSHRMerges++
					} else {
						s.fillDelete(line)
					}
				}
			} else {
				s.st.L1Misses++
				if s.relaxed {
					// Epoch mode: the shared system is frozen until the
					// rendezvous, so take an estimated completion time now
					// and defer the real transaction. Stats/energy for the
					// beyond-L1 part are accounted at commit (commitTx).
					txDone = s.msys.EstimateAccess(s.now, line)
					s.epochTx.Defer(s.now, line, false)
				} else {
					txDone = s.memBeyondL1(line, false)
				}
				s.fillPut(line, txDone)
			}
		} else {
			// Write-through, write-evict: the store drains towards DRAM in
			// the background; the warp does not wait on it.
			s.l1.Invalidate(line)
			if s.relaxed {
				s.epochTx.Defer(s.now, line, true)
			} else {
				s.memBeyondL1(line, true)
			}
			txDone = s.now + occ + 1
		}
		if txDone > latest {
			latest = txDone
		}
	}
	if isLoad {
		s.outstanding += len(txs)
		mshrs = len(txs)
	}
	return latest + extra, mshrs, true
}

// memBeyondL1 sends one transaction into the L2/DRAM system, accounting
// energy by how deep it went, and returns its completion cycle.
func (s *SM) memBeyondL1(line uint32, write bool) uint64 {
	done, kind := s.msys.AccessL2(s.now, line, write)
	s.st.L2Accesses++
	s.meter.AddN(power.CompNoC, mem.LineSize, s.en.NoCPerByte)
	s.meter.Add(power.CompL2, s.en.L2Access)
	if kind == mem.AccessDRAM {
		s.st.L2Misses++
		s.st.DRAMTransactions++
		s.meter.AddN(power.CompDRAM, mem.LineSize, s.en.DRAMPerByte)
	}
	return done
}

// processWritebacks retires events whose completion cycle has arrived:
// scoreboard release, register-file write energy, and compression-metadata
// update (the hardware's compressor stage). The caller (Cycle) skips it
// entirely until nextWb, so the scan below runs only on cycles that
// actually retire something. Events completing in the same cycle retire in
// dispatch order (the list's order), which fixes the order in which their
// energy is summed.
func (s *SM) processWritebacks() {
	// Remove every completed event from the list, and from its warp's
	// in-flight count, BEFORE handling any of them: maybeRecycle must see
	// none of this cycle's retiring events as in flight.
	done := s.wbScratch[:0]
	kept := s.events[:0]
	next := uint64(NoEvent)
	for _, r := range s.events {
		if r.done > s.now {
			if r.done < next {
				next = r.done
			}
			kept = append(kept, r)
		} else {
			done = append(done, r.idx)
			s.warps[s.evPool[r.idx].wi].inFlight--
		}
	}
	s.events = kept
	s.nextWb = next
	s.wbScratch = done
	for _, idx := range done {
		s.completeEvent(&s.evPool[idx])
		s.evFree = append(s.evFree, idx)
	}
}

func (s *SM) completeEvent(ev *wbEvent) {
	wc := &s.warps[ev.wi]

	if ev.mshrs > 0 {
		s.outstanding -= ev.mshrs
	}

	if ev.isMove {
		// The special move writes the register back uncompressed.
		full := core.Groups(s.cfg.WarpSize) * core.WordBytes
		s.meter.AddN(power.CompRFArray, full, s.en.RFArrayAccess)
		s.meter.AddN(power.CompRFCrossbar, full*16, s.en.RFCrossbarByte)
		s.meter.Add(power.CompRFBVR, s.en.RFBVRAccess)
		wc.meta.DecompressInPlace(int(ev.moveReg))
		wc.pendRegs &^= 1 << ev.moveReg
		s.unstall(ev.wi)
		s.maybeRecycle(ev.wi)
		return
	}

	in := ev.inst
	if in != nil {
		if dst, w := in.WritesReg(); w {
			s.writebackReg(wc, ev, dst)
			wc.pendRegs &^= 1 << dst
		}
		if p, w := in.WritesPred(); w {
			if s.arch.RVC == RVCByteWise {
				wc.meta.OnPredWrite(int(p), ev.active, ev.predUniform)
			}
			wc.pendPreds &^= 1 << p
		}
	}
	s.unstall(ev.wi)
	s.maybeRecycle(ev.wi)
}

// unstall clears a warp's scoreboard stall after one of its writebacks
// lands. The next issue attempt re-evaluates the hazard, so clearing
// conservatively (the stall may persist on another pending register) is
// exactly equivalent to the previous re-check-every-cycle behaviour.
func (s *SM) unstall(wi int) {
	wc := &s.warps[wi]
	if wc.scoreStalled {
		wc.scoreStalled = false
		s.markReady(wi)
	}
}

// writebackReg applies the architecture's register-write energy and
// metadata update.
func (s *SM) writebackReg(wc *warpCtx, ev *wbEvent, dst uint8) {
	vec := ev.dstVec
	active := ev.active
	switch {
	case s.arch.RVC == RVCByteWise:
		wb := wc.meta.OnWrite(int(dst), vec, active, s.arch.F, ev.elig == core.EligibleFull)
		s.meter.AddN(power.CompRFArray, wb.ArraysWritten, s.en.RFArrayAccess)
		s.meter.AddN(power.CompRFCrossbar, wb.ArraysWritten*16, s.en.RFCrossbarByte)
		if wb.BVREBRWritten {
			s.meter.Add(power.CompRFBVR, s.en.RFBVRAccess)
		}
		s.meter.Add(power.CompCodec, s.en.CompressorUse)
		s.st.CompressedBits += uint64(wb.CompressedBits)
		s.st.OriginalBits += uint64(wb.OriginalBits)

	case s.arch.RVC == RVCBDI:
		r := wc.bdi.OnWrite(int(dst), vec, active, wc.w.LiveMask)
		arrays := (r.SizeBytes + 15) / 16
		s.meter.AddN(power.CompRFArray, arrays, s.en.RFArrayAccess)
		s.meter.AddN(power.CompRFCrossbar, r.SizeBytes, s.en.RFCrossbarByte)
		s.meter.Add(power.CompCodec, s.en.BDICodecUse)
		s.st.CompressedBits += uint64(r.SizeBytes * 8)
		s.st.OriginalBits += uint64(s.cfg.WarpSize * core.WordBits)

	case s.arch.Scalar == ScalarPriorRF:
		wc.srf.OnWrite(int(dst), vec, active)
		if wc.srf.IsScalarReg(int(dst)) {
			s.meter.Add(power.CompRFScalarBank, s.en.RFScalarBankAccess)
		} else {
			s.baselineWrite(wc, int(dst), active)
		}

	default:
		s.baselineWrite(wc, int(dst), active)
	}
}

// baselineWrite accounts a write to the unmodified register file: the
// word-interleaved arrays containing active lanes are activated. The cost
// depends only on the active mask, not the values.
func (s *SM) baselineWrite(wc *warpCtx, dst int, active warp.Mask) {
	wb := wc.meta.OnWrite(dst, nil, active, core.Features{}, false)
	s.meter.AddN(power.CompRFArray, wb.ArraysWritten, s.en.RFArrayAccess)
	s.meter.AddN(power.CompRFCrossbar, wb.ArraysWritten*16, s.en.RFCrossbarByte)
}

// maybeRecycle frees a warp slot whose CTA finished while this event was in
// flight.
func (s *SM) maybeRecycle(wi int) {
	wc := &s.warps[wi]
	if wc.freeWhenDrained && wc.inFlight == 0 {
		s.regArena.Free(wc.w.Storage())
		wc.valid = false
		wc.freeWhenDrained = false
	}
}
