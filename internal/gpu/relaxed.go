package gpu

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"gscalar/internal/kernel"
	"gscalar/internal/mem"
	"gscalar/internal/power"
	"gscalar/internal/sm"
)

// resolveWorkers turns Config.Workers into the relaxed loop's concrete
// compute-worker count: negative means one per host core, the count never
// exceeds the SM count, and a single-SM chip or a single-CTA launch has
// nothing to overlap, so it runs inline on one goroutine. Only the goroutine
// count varies here — never the algorithm — so every resolved value
// produces bit-identical simulation results.
func resolveWorkers(cfg Config, totalCTAs int) int {
	w := cfg.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cfg.NumSMs {
		w = cfg.NumSMs
	}
	if cfg.NumSMs < 2 || totalCTAs < 2 || w < 1 {
		return 1
	}
	return w
}

// epochWorkerOrder is a test hook: when non-nil it chooses the order in
// which the epoch pool launches its worker goroutines. An SM's owning
// worker is a pure function of the worker index — launch order cannot
// affect results — and the determinism suite uses the hook to prove it.
var epochWorkerOrder func(workers int) []int

// epochSpan is one epoch's cycle range [start, end).
type epochSpan struct {
	start, end uint64
}

// epochPool runs the compute phase of each epoch across a set of persistent
// workers: worker w owns the fixed SM stride w, w+workers, w+2*workers, …,
// so an SM is only ever stepped by one goroutine. The pool is a barrier:
// epoch() returns only after every SM has run its span, which establishes
// the happens-before edge for the serial rendezvous that follows.
type epochPool struct {
	sms     []*sm.SM
	workers int
	stops   []uint64 // per-SM stop cycle of the last epoch
	start   []chan epochSpan
	wg      sync.WaitGroup
}

func newEpochPool(sms []*sm.SM, workers int) *epochPool {
	p := &epochPool{sms: sms, workers: workers, stops: make([]uint64, len(sms))}
	p.start = make([]chan epochSpan, workers)
	for w := 0; w < workers; w++ {
		p.start[w] = make(chan epochSpan, 1)
	}
	order := make([]int, workers)
	for i := range order {
		order[i] = i
	}
	if epochWorkerOrder != nil {
		order = epochWorkerOrder(workers)
	}
	for _, w := range order {
		go p.run(w)
	}
	return p
}

func (p *epochPool) run(w int) {
	for sp := range p.start[w] {
		for i := w; i < len(p.sms); i += p.workers {
			p.stops[i] = p.sms[i].RunEpoch(sp.start, sp.end)
		}
		p.wg.Done()
	}
}

// epoch advances every SM through [start, end) and waits for all of them.
func (p *epochPool) epoch(start, end uint64) {
	p.wg.Add(p.workers)
	for _, ch := range p.start {
		ch <- epochSpan{start, end}
	}
	p.wg.Wait()
}

// close releases the worker goroutines.
func (p *epochPool) close() {
	for _, ch := range p.start {
		close(ch)
	}
}

// runRelaxed is the epoch-based relaxed-synchronization loop. Each epoch
// splits in two:
//
//  1. Compute (parallel): every SM advances up to EpochCycles cycles —
//     skipping its own idle stretches via the NextEventCycle contract —
//     against a frozen shared memory system. Beyond-L1 load misses take
//     estimated completion times (mem.System.EstimateAccess, a read-only
//     probe of L2 tags and DRAM-channel backlog), the actual transactions
//     are deferred per SM, and global stores buffer in a per-SM overlay
//     that the SM's own loads read through.
//  2. Rendezvous (serial, ascending SM id): each SM commits its deferred
//     transactions into the shared L2/DRAM model at their recorded issue
//     cycles and flushes buffered stores into device memory. CTA dispatch,
//     idle skipping, lifecycle checkpoints, and telemetry samples all run
//     here, between epochs.
//
// The commit order is fixed and the compute phase reads only state frozen
// at the last rendezvous, so the simulated result is a pure function of
// (config, program, launch, memory image, EpochCycles) — the worker count
// changes wall-clock time only. The result is NOT bit-identical to the
// serial oracle: intra-epoch estimates ignore queueing behind same-epoch
// transactions, cross-SM store visibility is deferred to the epoch
// boundary, and CTA dispatch waves land on rendezvous cycles. The relaxed
// differential suite measures and bounds those deltas.
func runRelaxed(ctx context.Context, cfg Config, arch sm.Arch, prog *kernel.Program, lc *kernel.LaunchConfig, gmem *kernel.Memory, meter *power.Meter) (rawResult, error) {
	maxCycles := cfg.effectiveMaxCycles()
	epoch := uint64(cfg.EpochCycles)
	msys := mem.NewSystem(cfg.MemTiming, cfg.L2Bytes)
	sms := make([]*sm.SM, cfg.NumSMs)
	meters := make([]*power.Meter, cfg.NumSMs)
	for i := range sms {
		meters[i] = new(power.Meter)
		sms[i] = sm.New(i, cfg.SM, arch, cfg.Energies, prog, lc, gmem, msys, meters[i])
		sms[i].EnableRelaxed()
	}
	workers := resolveWorkers(cfg, lc.Grid.Count())
	tel := bindTelemetry(cfg, sms, append(append([]*power.Meter{}, meters...), meter), meter, msys, modeRelaxed, workers)
	lf := newLifecycle(ctx, cfg, tel)
	// Merge the per-SM meters in ascending id order on every exit path so
	// launch sequences keep accumulating energy across launches.
	defer func() {
		for _, pm := range meters {
			meter.Merge(pm)
		}
	}()

	stops := make([]uint64, cfg.NumSMs)
	var pool *epochPool
	if workers > 1 {
		pool = newEpochPool(sms, workers)
		defer pool.close()
		stops = pool.stops
	}

	disp := ctaDispatcher{total: lc.Grid.Count()}
	var cycle uint64

	for {
		disp.dispatch(sms)

		// Chip-wide idle skipping at the rendezvous: when every SM is
		// quiescent the next epoch would start with nothing to do until the
		// earliest completion event, so jump straight there instead of
		// grinding through empty epochs. Intra-epoch idling is handled by
		// each SM's own skip inside RunEpoch.
		if !cfg.DisableIdleSkip {
			if target, ok := nextEventCycle(sms); ok && target > cycle {
				if target >= maxCycles {
					return rawResult{}, fmt.Errorf("gpu: exceeded %d cycles (deadlock or runaway kernel)", maxCycles)
				}
				cycle = target
			}
		}

		end := cycle + epoch
		if end > maxCycles {
			end = maxCycles
		}

		// Compute phase.
		if pool != nil {
			pool.epoch(cycle, end)
		} else {
			for i, s := range sms {
				stops[i] = s.RunEpoch(cycle, end)
			}
		}

		// Rendezvous: fixed ascending commit order over all shared state.
		busy := false
		last := cycle
		for i, s := range sms {
			s.CommitEpoch()
			if s.Err() != nil {
				return rawResult{}, fmt.Errorf("gpu: cycle %d: %w", stops[i], s.Err())
			}
			if s.Busy() {
				busy = true
			}
			if stops[i] > last {
				last = stops[i]
			}
		}
		if !busy {
			// Every SM drained mid-epoch: resume right after the last
			// activity instead of at the epoch grid, so the final cycle
			// count — and the dispatch cycle of any still-pending CTA
			// wave — does not inherit epoch rounding.
			cycle = last
			if disp.done() {
				break
			}
		} else {
			cycle = end
		}
		if cycle >= maxCycles {
			return rawResult{}, fmt.Errorf("gpu: exceeded %d cycles (deadlock or runaway kernel)", maxCycles)
		}
		if err := lf.checkpoint(sms, cycle); err != nil {
			lf.finalSample(cycle)
			return finishRun(sms, cycle, modeRelaxed, workers), err
		}
	}

	lf.finalSample(cycle)
	return finishRun(sms, cycle, modeRelaxed, workers), nil
}
