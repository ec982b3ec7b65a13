package core

import (
	"context"
	"fmt"
	"math/bits"

	"ultrascalar/internal/branch"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
	"ultrascalar/internal/obs"
	"ultrascalar/internal/tracecache"
)

// Instruction-class bits, computed once at fetch so the per-cycle phases
// avoid re-dispatching on the opcode.
const (
	clsLoad uint8 = 1 << iota
	clsStore
	clsBranch
	clsJump
	clsHalt
	clsNop
)

const (
	clsMem   = clsLoad | clsStore
	clsFlow  = clsBranch | clsJump
	clsNoALU = clsMem | clsHalt | clsNop
)

func classify(in isa.Inst) uint8 {
	switch {
	case in.IsLoad():
		return clsLoad
	case in.IsStore():
		return clsStore
	case in.IsBranch():
		return clsBranch
	case in.IsJump():
		return clsJump
	case in.IsHalt():
		return clsHalt
	case in.Op == isa.OpNop:
		return clsNop
	}
	return 0
}

type engine struct {
	cfg    Config
	prog   []isa.Inst
	mem    *memory.Flat
	commit []isa.Word // committed register file (held by the oldest station)
	// commitProducer holds, per register, the dynamic sequence number of
	// the retired instruction that produced the committed value (-1 for
	// initial values), for the operand-distance statistic and the
	// self-timed forwarding model; commitDoneAt holds the cycle the value
	// became visible.
	commitProducer []int64
	commitDoneAt   []int64

	// st is the struct-of-arrays station file (soa.go): every station
	// field is a parallel slice indexed by slot, every flag a bitmap bit.
	// Slots are assigned round-robin by sequence number (slot = seq mod
	// Window) and freed in retirement order, so the live window is always
	// a contiguous circular run: ages 0..occ-1 occupy slots head,
	// head+1, ..., wrapping at Window. head/occ replace the seed engine's
	// explicit age-ordered slot list, and age-order iteration becomes at
	// most two linear spans (liveSpans) — so retirement no longer copies
	// the survivor list down every cycle.
	st   stations
	head int // slot of the oldest live station (valid when occ > 0)
	occ  int // number of live stations

	nextSeq int64
	// memCount is the number of loads and stores in the window; the
	// completion and memory phases are skipped when it is zero.
	memCount int

	fetchPC  int
	haltStop bool
	jalrWait bool

	trace      *tracecache.Cache
	traceBuild *tracecache.Builder
	ras        *branch.RAS

	// Forwarding scratch, reused every scan. fwdReady is the per-register
	// availability mask — one bit per logical register (MaxRegs = 32 ≤ 64),
	// updated with the same mask algebra as the station bitmaps.
	fwdVals       []isa.Word
	fwdWriter     []int64 // seq of the value's producer, -1 = initial
	fwdWriterDone []int64 // cycle the value became visible
	fwdReady      uint64
	// fwdDirty marks that register-producer state changed since the last
	// forwarding scan (completion, retirement, fetch, or squash). On clean
	// cycles the scan's inputs are bit-identical to the previous cycle's,
	// so forward() skips the full-window rescan. scanEveryCycle disables
	// the fast path (used by the equivalence tests; also forced when
	// ForwardLatency is set, since self-timed availability depends on the
	// cycle number, not only on producer state).
	fwdDirty       bool
	scanEveryCycle bool

	// wake selects the wakeup-link forwarding mode (see forward): operands
	// resolve to their producer once at fetch through regWriter — the
	// rename table mapping each register to the slot of its newest live
	// writer (-1 = committed file) — and the per-cycle scan only revisits
	// stations still waiting on a producer. Fault campaigns and self-timed
	// configurations keep the full scan, whose relatch-everything semantics
	// they depend on.
	wake      bool
	regWriter [isa.MaxRegs]int32
	// wakeN is the length of the completed-producer event queue
	// (st.wakeSlot/st.wakeSeq): producers that completed since the last
	// drain and had consumers linked on their list. forward drains it.
	wakeN int
	// fwdErr is a pending register-range error discovered while attaching
	// operands at fetch; forward returns it at the same point in the cycle
	// chain where the full scan would have detected it.
	fwdErr error

	// memoryPhase scratch, preallocated to the window size so the grant
	// lists never grow mid-run.
	memReqs  []memory.Request
	memCands []memCand

	// operandDist is the hot-path operand-distance histogram; it is
	// converted to Stats.OperandFromStation when the run completes.
	operandDist []int64

	cycle    int64
	stats    Stats
	timeline []InstRecord

	// trc receives pipeline events when tracing is on (cfg.Tracer). Every
	// hot-path hook is guarded by a nil check, so the traced path costs
	// nothing measurable when off; obs.Tracer.Record itself is
	// //uslint:hotpath and allocation-free.
	trc *obs.Tracer
	// met / metGauges drive the periodic metrics snapshots (cfg.Metrics).
	// Snapshot ticks run from the Run loop, not from the hot-path chain.
	met       *obs.Registry
	metGauges engineGauges

	// flt is the fault-injection state (cfg.FaultPlan); nil on normal
	// runs, where the faulted paths cost one pointer test. lastRetire is
	// the most recent cycle that retired an instruction (-1 before the
	// first), driving the livelock watchdog.
	flt        *faultState
	lastRetire int64

	// ctx is the run's cancellation context (RunCtx); nil when the run is
	// uncancellable (Run), where the per-cycle probe costs one pointer
	// test. ctxEvery is the probe period in cycles — one watchdog
	// interval, so a canceled run returns within one interval.
	ctx      context.Context
	ctxEvery int64
}

// engineGauges are the engine's registered metrics instruments, resolved
// once at Run setup so the periodic tick does no map lookups.
type engineGauges struct {
	occupancy, ipc, retired, fetched, squashed, mispredicts, cycleNo *obs.Gauge
}

// memCand pairs an eligible memory station's slot with its effective
// address for the grant phase.
type memCand struct {
	slot int32
	addr isa.Word
}

// liveSpans returns the live window as up to two linear slot spans in age
// order: [lo1, hi1) then [lo2, hi2) (the wrapped tail; empty when the
// window does not wrap). Every word-at-a-time phase iterates these spans.
func (e *engine) liveSpans() (lo1, hi1, lo2, hi2 int) {
	end := e.head + e.occ
	if end <= e.cfg.Window {
		return e.head, end, 0, 0
	}
	return e.head, e.cfg.Window, 0, end - e.cfg.Window
}

// slotAt maps an age index (0 = oldest) to its slot.
func (e *engine) slotAt(i int) int {
	s := e.head + i
	if s >= e.cfg.Window {
		s -= e.cfg.Window
	}
	return s
}

// ageOf maps a live slot back to its age index.
func (e *engine) ageOf(slot int) int {
	a := slot - e.head
	if a < 0 {
		a += e.cfg.Window
	}
	return a
}

// finishedWord returns the word-w bitmap of stations that have completed
// all their effects and may retire on reaching the head: stores once
// memory is done, control flow once resolved, everything else once done.
func (e *engine) finishedWord(w int) uint64 {
	st := &e.st
	return st.store[w]&st.memDone[w] |
		st.flow[w]&st.resolved[w] |
		(st.busy[w]&^st.store[w]&^st.flow[w])&st.done[w]
}

// finishedSlot is the single-bit view of finishedWord.
func (e *engine) finishedSlot(slot int) bool {
	return e.finishedWord(slot>>6)>>(uint(slot)&63)&1 != 0
}

// Run executes prog on the configured processor with the given data
// memory (mutated in place). The run cannot be canceled; use RunCtx to
// bound it by a context.
func Run(prog []isa.Inst, mem *memory.Flat, cfg Config) (*Result, error) {
	return RunCtx(nil, prog, mem, cfg)
}

// RunCtx is Run with cooperative cancellation: the engine probes
// ctx.Err() once per watchdog interval (64 cycles when the watchdog is
// disabled) from the per-cycle chain and, when the context is canceled
// or past its deadline, abandons the run and returns a *CanceledError
// wrapping ctx.Err(). The probe is nil-guarded and allocation-free, so
// the measured hot path is unchanged; partial architectural state is
// discarded exactly as on any other run error. A nil ctx (what Run
// passes) disables the probe entirely.
func RunCtx(ctx context.Context, prog []isa.Inst, mem *memory.Flat, cfg Config) (*Result, error) {
	return runCtx(ctx, prog, mem, cfg, nil)
}

// runCtx is RunCtx with an optional fault probe: ScreenFaults attaches
// one to put the run's fault state in probe mode.
func runCtx(ctx context.Context, prog []isa.Inst, mem *memory.Flat, cfg Config, probe *faultProbe) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	nr, w := cfg.NumRegs, cfg.Window
	// Station and engine slices come out of one arena per element type
	// (the station file carves its int64/isa.Word shares off the same two
	// arenas), so a Run's setup cost is a fixed handful of allocations
	// however large the register file and window are.
	i64 := make([]int64, stationArena64(w)+4*nr+2*(w+1))
	wrd := make([]isa.Word, stationArenaWords(w)+2*nr)
	e := &engine{
		cfg:            cfg,
		prog:           prog,
		mem:            mem,
		st:             newStations(w, &i64, &wrd),
		memReqs:        make([]memory.Request, 0, w),
		memCands:       make([]memCand, 0, w),
		fwdDirty:       true,
		scanEveryCycle: cfg.ForwardLatency != nil || scanEveryCycleForTests,
	}
	e.commit = carve(&wrd, nr)
	e.fwdVals = carve(&wrd, nr)
	e.commitProducer = carve(&i64, nr)
	e.commitDoneAt = carve(&i64, nr)
	e.fwdWriter = carve(&i64, nr)
	e.fwdWriterDone = carve(&i64, nr)
	e.operandDist = carve(&i64, w+1)
	e.stats.Occupancy = carve(&i64, w+1)
	for r := range e.commitProducer {
		e.commitProducer[r] = -1
	}
	if cfg.InitRegs != nil {
		copy(e.commit, cfg.InitRegs)
	}
	if cfg.KeepTimeline {
		e.timeline = make([]InstRecord, 0, 4*cfg.Window)
	}
	if cfg.Fetch == FetchTrace {
		e.trace = tracecache.New(cfg.TraceSetBits, cfg.TraceLen)
		e.traceBuild = tracecache.NewBuilder(e.trace)
	}
	if cfg.ReturnStack > 0 {
		e.ras = branch.NewRAS(cfg.ReturnStack)
	}
	e.trc = cfg.Tracer
	e.lastRetire = -1
	e.ctx = ctx
	e.ctxEvery = cfg.Watchdog
	if e.ctxEvery <= 0 {
		e.ctxEvery = 64 // watchdog disabled: keep cancellation responsive
	}
	if cfg.FaultPlan != nil && len(cfg.FaultPlan.Faults) > 0 {
		e.flt = newFaultState(prog, mem, cfg)
		e.flt.probe = probe
	}
	// Wakeup links assume producer state only moves toward done and that
	// latched operands stay latched — both broken by injected faults
	// (which a full rescan heals) and by self-timed availability (which
	// depends on the cycle number). Those runs keep the seed's full scan.
	e.wake = e.flt == nil && !e.scanEveryCycle
	for r := range e.regWriter {
		e.regWriter[r] = -1
	}
	if e.wake {
		for i := range e.st.consHead {
			e.st.consHead[i] = -1
		}
	}
	if cfg.Metrics != nil {
		e.met = cfg.Metrics
		e.metGauges = engineGauges{
			occupancy:   e.met.Gauge("core.occupancy"),
			ipc:         e.met.Gauge("core.ipc"),
			retired:     e.met.Gauge("core.retired"),
			fetched:     e.met.Gauge("core.fetched"),
			squashed:    e.met.Gauge("core.squashed"),
			mispredicts: e.met.Gauge("core.mispredicts"),
			cycleNo:     e.met.Gauge("core.cycle"),
		}
	}
	e.fetch() // initial fill: the window is loaded before the first cycle

	for e.cycle = 0; e.cycle < cfg.MaxCycles; e.cycle++ {
		if e.occ == 0 {
			if e.haltStop {
				// The halt retired and ended the run inside retire();
				// reaching here with haltStop means fetch stopped but halt
				// never entered: impossible, defensive.
				return nil, ErrPCOutOfRange
			}
			return nil, fmt.Errorf("%w: pc=%d len=%d", ErrPCOutOfRange, e.fetchPC, len(e.prog))
		}
		// Occupancy is measured as the window state entering the cycle.
		e.stats.StationBusy += int64(e.occ)
		e.stats.Occupancy[e.occ]++
		if e.met != nil && e.cycle%e.cfg.MetricsEvery == 0 {
			e.metricsTick()
		}
		if err := e.ctxErr(); err != nil {
			return nil, &CanceledError{Cycle: e.cycle, Err: err}
		}
		if cfg.Watchdog > 0 && e.cycle-e.lastRetire > cfg.Watchdog && e.livelocked() {
			if !e.watchdogRecover() {
				return nil, e.livelockError()
			}
		}
		e.completions()
		if err := e.forward(); err != nil {
			return nil, err
		}
		if e.flt != nil {
			e.faultCycle()
		}
		e.execute()
		e.memoryPhase()
		e.recover()
		if halted := e.retire(); halted {
			e.stats.Cycles = e.cycle + 1
			e.finishStats()
			if e.met != nil {
				e.metricsTick() // final snapshot at halt
			}
			return &Result{Regs: e.commit, Mem: e.mem, Stats: e.stats, Timeline: e.timeline}, nil
		}
		e.fetch()
	}
	return nil, ErrNoHalt
}

// ctxErr is the per-cycle cancellation probe: every ctxEvery cycles it
// returns the run context's cancellation error, nil otherwise. It sits
// in the per-cycle chain, so it is //uslint:hotpath — nil-guarded, one
// modulo and one interface call, no allocation (wrapping the error into
// a CanceledError happens on the cold exit path in RunCtx).
//
//uslint:hotpath
func (e *engine) ctxErr() error {
	if e.ctx == nil || e.cycle%e.ctxEvery != 0 {
		return nil
	}
	return e.ctx.Err()
}

// scanEveryCycleForTests disables the incremental-forwarding fast path
// for every subsequent Run, forcing the full-window scan each cycle (the
// seed semantics). It exists for the golden equivalence tests; set it
// before starting runs, never concurrently with them.
var scanEveryCycleForTests bool

// metricsTick publishes the engine gauges and takes one registry
// snapshot. It runs from the Run loop every MetricsEvery cycles (and
// once at halt), outside the //uslint:hotpath chain, so snapshot
// allocations never touch the measured per-cycle path.
func (e *engine) metricsTick() {
	g := e.metGauges
	g.occupancy.Set(float64(e.occ))
	g.retired.Set(float64(e.stats.Retired))
	g.fetched.Set(float64(e.stats.Fetched))
	g.squashed.Set(float64(e.stats.Squashed))
	g.mispredicts.Set(float64(e.stats.Mispredicts))
	g.cycleNo.Set(float64(e.cycle))
	ipc := 0.0
	if e.cycle > 0 {
		ipc = float64(e.stats.Retired) / float64(e.cycle)
	}
	g.ipc.Set(ipc)
	e.met.Snapshot(e.cycle)
}

// finishStats materializes the operand-distance histogram into the
// public Stats map once the run completes. The map is sized to its exact
// population first: incremental insertion grew buckets several times per
// run, which dominated the short-run allocs/cycle figure.
func (e *engine) finishStats() {
	n := 0
	for _, c := range e.operandDist {
		if c != 0 {
			n++
		}
	}
	e.stats.OperandFromStation = make(map[int]int64, n)
	for d, c := range e.operandDist {
		if c != 0 {
			e.stats.OperandFromStation[d] = c
		}
	}
}

// completions makes memory data that arrived at the end of the previous
// cycle visible. The candidate set is one word expression: in flight and
// not yet delivered.
//
//uslint:hotpath
func (e *engine) completions() {
	if e.memCount == 0 {
		return
	}
	st := &e.st
	var spans [2][2]int
	spans[0][0], spans[0][1], spans[1][0], spans[1][1] = e.liveSpans()
	for _, sp := range spans {
		for w := sp[0] >> 6; w <= (sp[1]-1)>>6; w++ {
			pend := (st.memInFlight[w] &^ st.memDone[w]) & spanMask(sp[0], sp[1], w)
			for pend != 0 {
				b := bits.TrailingZeros64(pend)
				pend &= pend - 1
				slot := w<<6 + b
				if st.memDoneAt[slot] <= e.cycle {
					st.memDone.set(slot)
					st.done.set(slot)
					e.queueWake(slot)
					e.fwdDirty = true
					if e.trc != nil {
						e.trc.Record(obs.EvExec, e.cycle, st.seq[slot], st.pc[slot], int32(slot), 0)
					}
				}
			}
		}
	}
}

// forward makes producer results visible to waiting consumers, in one of
// two modes that compute the same (value, ready) assignment:
//
// Full scan (fault campaigns, ForwardLatency, the equivalence tests): the
// per-register CSPP scan of the seed engine. Each station receives, for
// each source register, the (value, ready) pair inserted by the nearest
// preceding modifier, or the committed register file at the oldest station
// (paper Figure 1/4 semantics; one full-window propagation per cycle).
// Re-latching every unstarted station each scan is what heals injected
// operand corruption, and self-timed availability depends on the cycle
// number, so those runs scan every cycle.
//
// Wakeup links (everything else): the CSPP assignment is a pure prefix
// function of fixed inputs — a station's nearest preceding writer of r is
// determined the moment it is fetched (the set of older stations never
// grows), and a producer's value is final once done. So attachOperands
// resolves each operand once at fetch through the regWriter rename table:
// an already-done (or committed) producer latches immediately, and a
// still-executing one leaves a (slot, seq) wakeup link and pushes itself
// onto the producer's consumer list. Each completion enqueues one wake
// event; drainWakes then touches exactly the consumers of producers that
// completed since the last drain — the per-cycle work shrinks from the
// whole window to the wakeups that actually happened, the software
// analogue of a CAM match line waking only its listeners.
//
// Fast path (both modes): the scan's inputs change only on completion,
// retirement, fetch, or squash. On cycles with none of those events the
// previous scan's outputs (ready, a, b, srcD0/srcD1) are still exact, so
// the rescan is skipped entirely (fwdDirty). Wake mode does not even
// dirty on fetch: attachOperands latches from current producer state, so
// a fetched station is exact until some producer completes.
//
//uslint:hotpath
func (e *engine) forward() error {
	if e.fwdErr != nil {
		return e.fwdErr
	}
	if !e.fwdDirty && !e.scanEveryCycle {
		return nil
	}
	e.fwdDirty = false
	if e.wake {
		e.drainWakes()
		return nil
	}
	copy(e.fwdVals, e.commit)
	copy(e.fwdWriter, e.commitProducer)
	copy(e.fwdWriterDone, e.commitDoneAt)
	e.fwdReady = ^uint64(0)
	lo1, hi1, lo2, hi2 := e.liveSpans()
	if err := e.forwardSpan(lo1, hi1); err != nil {
		return err
	}
	return e.forwardSpan(lo2, hi2)
}

// queueWake enqueues a completed producer for the next drain. Called at
// every done.set site in wake mode; the consHead gate keeps producers
// nobody waits on (and all non-writers) out of the queue. The producer's
// seq is captured now because the slot can retire and be refetched before
// the drain runs. The queue cannot overflow: done is monotone per
// station, a freed slot's next occupant cannot complete before the next
// forward drains, so at most one event per slot accumulates per window.
//
//uslint:hotpath
func (e *engine) queueWake(slot int) {
	st := &e.st
	if e.wake && st.consHead[slot] >= 0 {
		st.wakeSlot[e.wakeN] = int32(slot)
		st.wakeSeq[e.wakeN] = st.seq[slot]
		e.wakeN++
	}
}

// drainWakes delivers queued producer completions to the consumers linked
// on each producer's list, latching the operand and setting ready when the
// last link clears. A list can mix generations: a producer can retire and
// its slot refill before the drain runs, so nodes are matched against the
// event's captured seq — a node still waiting on the slot's newer occupant
// is kept for that occupant's own event, anything else (dead consumer,
// operand already latched) is dropped. The retired-producer case needs no
// fallback read of the committed file: its result slice entry is intact
// until the new occupant executes, which is always after this drain.
//
//uslint:hotpath
func (e *engine) drainWakes() {
	st := &e.st
	for i := 0; i < e.wakeN; i++ {
		p := int(st.wakeSlot[i])
		pseq := st.wakeSeq[i]
		res := st.result[p]
		node := st.consHead[p]
		keepHead, keepTail := int32(-1), int32(-1)
		for node >= 0 {
			next := st.consNext[node]
			c := int(node >> 1)
			keep := false
			if st.busy.get(c) {
				if node&1 == 0 {
					if st.srcSlot0[c] == int32(p) {
						if st.srcSeq0[c] == pseq {
							st.a[c] = res
							st.srcSlot0[c] = -1
							if st.srcSlot1[c] < 0 {
								st.ready.set(c)
							}
						} else {
							keep = true
						}
					}
				} else {
					if st.srcSlot1[c] == int32(p) {
						if st.srcSeq1[c] == pseq {
							st.b[c] = res
							st.srcSlot1[c] = -1
							if st.srcSlot0[c] < 0 {
								st.ready.set(c)
							}
						} else {
							keep = true
						}
					}
				}
			}
			if keep {
				if keepTail < 0 {
					keepHead = node
				} else {
					st.consNext[keepTail] = node
				}
				keepTail = node
			}
			node = next
		}
		if keepTail >= 0 {
			st.consNext[keepTail] = -1
		}
		st.consHead[p] = keepHead
	}
	e.wakeN = 0
}

// attachOperands resolves a just-fetched station's source operands against
// the rename table (wake mode only; it runs inside the fetch loop, after
// older same-cycle fetches updated the table and before this station's own
// write does, so self-reads see the previous writer exactly as the scan's
// age-order propagation would). Operands whose producer is committed or
// already done latch now; the rest leave wakeup links and join their
// producer's consumer list, to be woken by drainWakes at the forward
// after the producer completes. A
// source register out of range parks the seed scan's error in fwdErr —
// forward reports it at the same point of the next cycle's chain.
//
//uslint:hotpath
func (e *engine) attachOperands(slot int) {
	st := &e.st
	n := e.cfg.NumRegs
	seq := st.seq[slot]
	nr := int(st.nsrc[slot])
	st.srcSlot0[slot], st.srcSlot1[slot] = -1, -1
	ready := true
	for k := 0; k < nr; k++ {
		r := st.r1[slot]
		if k == 1 {
			r = st.r2[slot]
		}
		if int(r) >= n {
			if e.fwdErr == nil {
				e.fwdErr = fmt.Errorf("core: %s reads r%d but machine has %d registers", st.inst[slot], r, n) //uslint:allow hotpathalloc -- cold error path, terminates the run
			}
			return
		}
		var val isa.Word
		d := int32(-1)
		pend := int32(-1)
		var pendSeq int64
		if p := e.regWriter[r]; p >= 0 {
			pi := int(p)
			d = int32(seq - st.seq[pi])
			if st.done.get(pi) {
				val = st.result[pi]
			} else {
				pend, pendSeq = p, st.seq[pi]
				ready = false
				node := int32(slot)<<1 | int32(k)
				st.consNext[node] = st.consHead[pi]
				st.consHead[pi] = node
			}
		} else {
			if cp := e.commitProducer[r]; cp >= 0 {
				d = int32(seq - cp)
			}
			val = e.commit[r]
		}
		if k == 0 {
			st.a[slot], st.srcD0[slot] = val, d
			st.srcSlot0[slot], st.srcSeq0[slot] = pend, pendSeq
		} else {
			st.b[slot], st.srcD1[slot] = val, d
			st.srcSlot1[slot], st.srcSeq1[slot] = pend, pendSeq
		}
	}
	st.srcN[slot] = uint8(nr)
	if ready {
		st.ready.set(slot)
	}
}

// rebuildRename rederives the rename table from the surviving window
// after a squash: the newest live writer of each register, or -1 for the
// committed file. One age-order pass over the survivors — cheaper than
// checkpointing the table per branch, and squashes are per-mispredict,
// not per-cycle.
func (e *engine) rebuildRename() {
	for r := range e.regWriter {
		e.regWriter[r] = -1
	}
	st := &e.st
	for i := 0; i < e.occ; i++ {
		s := e.slotAt(i)
		if st.writes.get(s) {
			e.regWriter[st.dest[s]] = int32(s)
		}
	}
}

// forwardSpan propagates the full scan through one linear slot span in
// age order. The word-level work set is latchers | writers: unstarted
// stations re-latching operands, plus register writers driving the wires;
// everything else is skipped a word at a time.
func (e *engine) forwardSpan(lo, hi int) error {
	if lo >= hi {
		return nil
	}
	st := &e.st
	n := e.cfg.NumRegs
	fl := e.cfg.ForwardLatency
	vals, writer, writerDone := e.fwdVals, e.fwdWriter, e.fwdWriterDone
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		m := spanMask(lo, hi, w)
		latch := st.busy[w] &^ st.started[w] & m
		wr := st.writes[w] & m
		work := latch | wr
		for work != 0 {
			b := bits.TrailingZeros64(work)
			work &= work - 1
			bit := uint64(1) << uint(b)
			slot := w<<6 + b
			if latch&bit != 0 {
				nr := int(st.nsrc[slot])
				seq := st.seq[slot]
				opsReady := true
				for k := 0; k < nr; k++ {
					r := st.r1[slot]
					if k == 1 {
						r = st.r2[slot]
					}
					if int(r) >= n {
						return fmt.Errorf("core: %s reads r%d but machine has %d registers", st.inst[slot], r, n) //uslint:allow hotpathalloc -- cold error path, terminates the run
					}
					avail := e.fwdReady>>r&1 != 0
					if avail && fl != nil && writer[r] >= 0 {
						// Self-timed datapath: the value reaches a consumer d
						// instructions away only after the extra path latency.
						extra := fl(int(seq - writer[r]))
						if e.cycle < writerDone[r]+int64(extra) {
							avail = false
						}
					}
					if !avail {
						opsReady = false
					}
					d := int32(-1)
					if writer[r] >= 0 {
						d = int32(seq - writer[r])
					}
					if k == 0 {
						st.a[slot] = vals[r]
						st.srcD0[slot] = d
					} else {
						st.b[slot] = vals[r]
						st.srcD1[slot] = d
					}
				}
				st.srcN[slot] = uint8(nr)
				st.ready.put(slot, opsReady)
			}
			if wr&bit != 0 {
				d := st.dest[slot]
				if int(d) >= n {
					return fmt.Errorf("core: %s writes r%d but machine has %d registers", st.inst[slot], d, n) //uslint:allow hotpathalloc -- cold error path, terminates the run
				}
				vals[d] = st.result[slot]
				e.fwdReady = e.fwdReady&^(1<<d) | st.done[w]>>uint(b)&1<<d
				writer[d] = st.seq[slot]
				writerDone[d] = st.doneAt[slot]
			}
		}
	}
	return nil
}

// execute progresses ALU, jump and branch stations. With a shared-ALU
// pool configured, at most NumALUs instructions execute concurrently,
// allocated oldest first — the priority the CSPP scheduler implements.
// The in-flight count is a popcount over started &^ done & alu; the issue
// and tick work set is one word expression per 64 slots.
//
//uslint:hotpath
func (e *engine) execute() {
	st := &e.st
	var spans [2][2]int
	spans[0][0], spans[0][1], spans[1][0], spans[1][1] = e.liveSpans()
	budget := e.cfg.NumALUs
	if budget > 0 {
		for _, sp := range spans {
			for w := sp[0] >> 6; w <= (sp[1]-1)>>6; w++ {
				budget -= bits.OnesCount64(st.started[w] &^ st.done[w] & st.alu[w] & spanMask(sp[0], sp[1], w))
			}
		}
	}
	for _, sp := range spans {
		for w := sp[0] >> 6; w <= (sp[1]-1)>>6; w++ {
			memW := st.load[w] | st.store[w]
			work := (st.busy[w] &^ st.done[w] &^ memW) & (st.ready[w] | st.started[w]) & spanMask(sp[0], sp[1], w)
			for work != 0 {
				b := bits.TrailingZeros64(work)
				work &= work - 1
				slot := w<<6 + b
				if st.started[w]>>uint(b)&1 == 0 {
					if e.cfg.NumALUs > 0 && st.alu[w]>>uint(b)&1 != 0 {
						if budget <= 0 {
							e.stats.ALUStarved++
							continue
						}
						budget--
					}
					st.started.set(slot)
					st.remaining[slot] = int32(e.cfg.Lat.Of(st.inst[slot]))
					st.issue[slot] = e.cycle
					e.recordSources(slot)
					if e.trc != nil {
						e.trc.Record(obs.EvIssue, e.cycle, st.seq[slot], st.pc[slot], int32(slot), st.remaining[slot])
					}
				}
				rem := st.remaining[slot]
				if rem > 0 {
					rem--
					st.remaining[slot] = rem
				}
				if rem > 0 {
					continue
				}
				// Completes at the end of this cycle; consumers see it
				// next cycle.
				st.done.set(slot)
				st.doneAt[slot] = e.cycle + 1
				e.queueWake(slot)
				e.fwdDirty = true
				if e.trc != nil {
					e.trc.Record(obs.EvExec, e.cycle, st.seq[slot], st.pc[slot], int32(slot), 0)
				}
				cl := st.class[slot]
				switch {
				case cl&clsBranch != 0:
					st.resolved.set(slot)
					st.actualNext[slot] = int32(isa.NextPC(st.inst[slot], int(st.pc[slot]), st.a[slot], st.b[slot]))
				case cl&clsJump != 0:
					st.resolved.set(slot)
					st.actualNext[slot] = int32(isa.NextPC(st.inst[slot], int(st.pc[slot]), st.a[slot], st.b[slot]))
					st.result[slot] = isa.Word(st.pc[slot] + 1) // link
				case cl&(clsHalt|clsNop) != 0:
					// no result
				default:
					st.result[slot] = isa.ALUOp(st.inst[slot], st.a[slot], st.b[slot])
				}
			}
		}
	}
}

// recordSources accounts operand producer distances at issue time. The
// histogram is a dense slice (distances from committed producers can
// exceed the window, so it grows on demand); it becomes the public
// Stats.OperandFromStation map when the run completes.
func (e *engine) recordSources(slot int) {
	st := &e.st
	n := int(st.srcN[slot])
	for k := 0; k < n; k++ {
		d := st.srcD0[slot]
		if k == 1 {
			d = st.srcD1[slot]
		}
		if e.trc != nil {
			e.trc.Record(obs.EvForward, e.cycle, st.seq[slot], st.pc[slot], int32(slot), d)
		}
		if d < 0 {
			e.stats.OperandFromCommitted++
			continue
		}
		if int(d) >= len(e.operandDist) {
			grown := make([]int64, max(int(d)+1, 2*len(e.operandDist))) //uslint:allow hotpathalloc -- amortized histogram growth, not per-cycle
			copy(grown, e.operandDist)
			e.operandDist = grown
		}
		e.operandDist[d]++
	}
}

// memoryPhase gates loads and stores through the sequencing CSPPs and the
// fat-tree arbitration.
//
// Paper Section 2: "A station cannot load from memory until all preceding
// stores have finished. A station cannot store to memory until all
// preceding loads and stores have finished" and "A station cannot modify
// memory ... until all preceding stations have committed."
//
// The running AND-prefixes over the window in age order are the
// functional equivalent of the three 1-bit CSPPs of Figure 5 with the
// oldest station's segment bit high; the word-level work set
// (load|store|flow) skips every slot that cannot move a prefix bit or
// request memory.
//
//uslint:hotpath
func (e *engine) memoryPhase() {
	if e.memCount == 0 {
		return
	}
	st := &e.st
	storesDone := true // all earlier stores finished
	memDone := true    // all earlier loads and stores finished
	committed := true  // all earlier branches confirmed

	reqs := e.memReqs[:0]
	cands := e.memCands[:0]
	var spans [2][2]int
	spans[0][0], spans[0][1], spans[1][0], spans[1][1] = e.liveSpans()
	for _, sp := range spans {
		for w := sp[0] >> 6; w <= (sp[1]-1)>>6; w++ {
			work := (st.load[w] | st.store[w] | st.flow[w]) & spanMask(sp[0], sp[1], w)
			for work != 0 {
				b := bits.TrailingZeros64(work)
				work &= work - 1
				bit := uint64(1) << uint(b)
				slot := w<<6 + b
				eligible := st.started[w]&bit == 0 && st.ready[w]&bit != 0
				cl := st.class[slot]
				if eligible && cl&clsLoad != 0 {
					addr := isa.EffAddr(st.inst[slot], st.a[slot])
					switch {
					case e.cfg.MemRenaming:
						// Memory renaming (Section 7): search the window for
						// the nearest earlier store to the same address,
						// through the CSPP-equivalent backward scan. A store
						// with an unknown address blocks; a match forwards;
						// otherwise the load is disambiguated and may bypass
						// unperformed stores.
						v, hit, blocked := e.forwardFromStore(e.ageOf(slot), addr)
						if hit {
							st.started.set(slot)
							st.done.set(slot)
							st.memDone.set(slot)
							st.doneAt[slot] = e.cycle + 1
							st.issue[slot] = e.cycle
							st.result[slot] = v
							e.queueWake(slot)
							e.fwdDirty = true
							e.recordSources(slot)
							e.stats.Loads++
							e.stats.LoadsForwarded++
							if e.trc != nil {
								e.trc.Record(obs.EvIssue, e.cycle, st.seq[slot], st.pc[slot], int32(slot), 0)
								e.trc.Record(obs.EvExec, e.cycle, st.seq[slot], st.pc[slot], int32(slot), 0)
							}
						} else if !blocked {
							reqs = append(reqs, memory.Request{Station: slot, Addr: addr, Age: st.seq[slot]}) //uslint:allow hotpathalloc -- reusable scratch, preallocated to the window size via e.memReqs
							cands = append(cands, memCand{int32(slot), addr})                                 //uslint:allow hotpathalloc -- reusable scratch, preallocated to the window size via e.memCands
						}
					case storesDone:
						reqs = append(reqs, memory.Request{Station: slot, Addr: addr, Age: st.seq[slot]}) //uslint:allow hotpathalloc -- reusable scratch, preallocated to the window size via e.memReqs
						cands = append(cands, memCand{int32(slot), addr})                                 //uslint:allow hotpathalloc -- reusable scratch, preallocated to the window size via e.memCands
					}
				}
				if eligible && cl&clsStore != 0 && memDone && committed {
					addr := isa.EffAddr(st.inst[slot], st.a[slot])
					reqs = append(reqs, memory.Request{Station: slot, Addr: addr, Store: true, Age: st.seq[slot]}) //uslint:allow hotpathalloc -- reusable scratch, preallocated to the window size via e.memReqs
					cands = append(cands, memCand{int32(slot), addr})                                              //uslint:allow hotpathalloc -- reusable scratch, preallocated to the window size via e.memCands
				}
				// Prefix updates re-read the word: a hit-forwarded load just
				// set its own memDone bit.
				md := st.memDone[w]&bit != 0
				if cl&clsStore != 0 {
					storesDone = storesDone && md
					memDone = memDone && md
				}
				if cl&clsLoad != 0 {
					memDone = memDone && md
				}
				if cl&clsFlow != 0 {
					// "Committed" requires the branch resolved on the
					// predicted path: a mispredicted branch squashes its
					// younger stations in this cycle's recovery phase, so
					// they must not touch memory.
					committed = committed && st.resolved[w]&bit != 0 && st.actualNext[slot] == st.predNext[slot]
				}
			}
		}
	}
	e.memReqs, e.memCands = reqs, cands // keep the scratch for reuse
	if len(reqs) == 0 {
		return
	}
	if e.cfg.MemSystem == nil {
		for _, c := range cands {
			e.grantMem(int(c.slot), c.addr, e.cfg.Lat.Of(st.inst[c.slot]))
		}
		return
	}
	// Candidates are few and age-ordered; a linear scan replaces the
	// per-cycle map the seed engine built to pair grants with stations.
	for _, g := range e.cfg.MemSystem.Arbitrate(reqs) {
		for _, c := range cands {
			if st.seq[c.slot] == g.Req.Age {
				e.grantMem(int(c.slot), c.addr, g.Latency)
				break
			}
		}
	}
}

// grantMem performs one granted memory access: the station issues, the
// access is performed against the flat memory now, and the data becomes
// visible when memDoneAt arrives.
//
//uslint:hotpath
func (e *engine) grantMem(slot int, addr isa.Word, latency int) {
	st := &e.st
	st.started.set(slot)
	st.memInFlight.set(slot)
	st.issue[slot] = e.cycle
	st.memDoneAt[slot] = e.cycle + int64(latency)
	st.doneAt[slot] = st.memDoneAt[slot]
	e.recordSources(slot)
	if e.trc != nil {
		e.trc.Record(obs.EvIssue, e.cycle, st.seq[slot], st.pc[slot], int32(slot), int32(latency))
	}
	if st.class[slot]&clsStore != 0 {
		if e.flt != nil {
			e.flt.noteStore(e, slot, addr)
		}
		e.mem.Store(addr, st.b[slot])
		e.stats.Stores++
	} else {
		st.result[slot] = e.mem.Load(addr)
		e.stats.Loads++
	}
}

// forwardFromStore scans the window backwards from the load at age index
// age for a store to addr. It returns the forwarded value on a hit;
// blocked is true when an earlier store's address is still unknown (the
// load must wait for disambiguation). Only the store bitmap is walked —
// newest first, word at a time.
func (e *engine) forwardFromStore(age int, addr isa.Word) (v isa.Word, hit, blocked bool) {
	w := e.cfg.Window
	end := e.head + age // absolute end of the older-station range
	if end > w {
		var found bool
		v, hit, blocked, found = e.scanStoresBack(0, end-w, addr)
		if found {
			return v, hit, blocked
		}
		end = w
	}
	v, hit, blocked, _ = e.scanStoresBack(e.head, end, addr)
	return v, hit, blocked
}

// scanStoresBack walks the store bits of [lo, hi) from the highest slot
// down. found reports that the scan terminated (hit or blocked) inside
// the span.
func (e *engine) scanStoresBack(lo, hi int, addr isa.Word) (v isa.Word, hit, blocked, found bool) {
	if lo >= hi {
		return 0, false, false, false
	}
	st := &e.st
	for w := (hi - 1) >> 6; w >= lo>>6; w-- {
		word := st.store[w] & spanMask(lo, hi, w)
		for word != 0 {
			b := bits.Len64(word) - 1
			word &^= 1 << uint(b)
			slot := w<<6 + b
			if st.ready[w]>>uint(b)&1 == 0 {
				return 0, false, true, true
			}
			if isa.EffAddr(st.inst[slot], st.a[slot]) == addr {
				return st.b[slot], true, false, true
			}
		}
	}
	return 0, false, false, false
}

// recover processes branch resolutions oldest-first: trains the
// predictors, and on the first misprediction squashes all younger stations
// and redirects fetch — the paper's single-cycle recovery ("Nothing needs
// to be done to recover from misprediction except to fetch new
// instructions from the correct program path"). The work set is one word
// expression: resolved but not yet processed.
//
//uslint:hotpath
func (e *engine) recover() {
	st := &e.st
	var spans [2][2]int
	spans[0][0], spans[0][1], spans[1][0], spans[1][1] = e.liveSpans()
	for _, sp := range spans {
		for w := sp[0] >> 6; w <= (sp[1]-1)>>6; w++ {
			work := (st.resolved[w] &^ st.flowDone[w]) & spanMask(sp[0], sp[1], w)
			for work != 0 {
				b := bits.TrailingZeros64(work)
				work &= work - 1
				slot := w<<6 + b
				st.flowDone.set(slot)
				if st.class[slot]&clsBranch != 0 {
					e.stats.Branches++
					taken := st.actualNext[slot] != st.pc[slot]+1
					if st.usedSpec.get(slot) {
						e.cfg.Predictor.(branch.SpecPredictor).
							Resolve(int(st.pc[slot]), int(st.histSnap[slot]), taken, st.actualNext[slot] != st.predNext[slot])
					} else {
						e.cfg.Predictor.Update(int(st.pc[slot]), taken)
					}
				}
				if st.inst[slot].Op == isa.OpJalr {
					e.cfg.BTB.Update(int(st.pc[slot]), int(st.actualNext[slot]))
				}
				if st.actualNext[slot] != st.predNext[slot] {
					e.stats.Mispredicts++
					e.squashAfter(e.ageOf(slot))
					e.fetchPC = int(st.actualNext[slot])
					e.haltStop = false
					e.jalrWait = false
					return // younger resolutions are gone
				}
			}
		}
	}
}

// squashSpans returns the absolute slot spans (at most two) occupied by
// ages [from, occ) — the tail a squash discards.
func (e *engine) squashSpans(from int) (s1lo, s1hi, s2lo, s2hi int) {
	w := e.cfg.Window
	aLo, aHi := e.head+from, e.head+e.occ
	switch {
	case aLo >= w:
		return aLo - w, aHi - w, 0, 0
	case aHi > w:
		return aLo, w, 0, aHi - w
	default:
		return aLo, aHi, 0, 0
	}
}

// memOnes counts load/store stations in one slot span.
func (e *engine) memOnes(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	st := &e.st
	n := 0
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		n += bits.OnesCount64((st.load[w] | st.store[w]) & spanMask(lo, hi, w))
	}
	return n
}

// squashAfter removes all stations younger than age index i: their bits
// clear from every state bitvec with two range masks, and the memory
// population correction is a popcount. Squashing needs no forwarding
// rescan: the surviving prefix's scan state is unaffected (the scan is a
// strict age-order prefix computation), and the squashed stations'
// outputs are discarded.
func (e *engine) squashAfter(i int) {
	st := &e.st
	nsq := e.occ - i - 1
	if nsq > 0 {
		if e.trc != nil {
			byPC := st.pc[e.slotAt(i)]
			for j := i + 1; j < e.occ; j++ {
				v := e.slotAt(j)
				e.trc.Record(obs.EvSquash, e.cycle, st.seq[v], st.pc[v], int32(v), byPC)
			}
		}
		s1lo, s1hi, s2lo, s2hi := e.squashSpans(i + 1)
		e.memCount -= e.memOnes(s1lo, s1hi) + e.memOnes(s2lo, s2hi)
		e.stats.Squashed += int64(nsq)
		for _, v := range st.stateVecs {
			v.clearRange(s1lo, s1hi)
			v.clearRange(s2lo, s2hi)
		}
		e.occ = i + 1
		e.nextSeq = st.seq[e.slotAt(i)] + 1
		if e.wake {
			e.rebuildRename()
			e.relinkWakes(s1lo, s1hi, s2lo, s2hi)
		}
		return
	}
	e.occ = i + 1
	e.nextSeq = st.seq[e.slotAt(i)] + 1
}

// relinkWakes resets the wake machinery after a squash. Sequence numbers
// rewind, so a squashed slot's next occupant reuses the exact (slot, seq)
// pair — a stale queue event or list node could then wake a consumer with
// the dead producer's result. Queue events for squashed producers are
// dropped (survivors' events stand: their consumers may survive too), and
// the consumer lists are rebuilt outright from the survivors' pending
// links, which also sheds every node that pointed at a squashed consumer.
func (e *engine) relinkWakes(s1lo, s1hi, s2lo, s2hi int) {
	st := &e.st
	kept := 0
	for i := 0; i < e.wakeN; i++ {
		s := int(st.wakeSlot[i])
		if (s >= s1lo && s < s1hi) || (s >= s2lo && s < s2hi) {
			continue
		}
		st.wakeSlot[kept] = st.wakeSlot[i]
		st.wakeSeq[kept] = st.wakeSeq[i]
		kept++
	}
	e.wakeN = kept
	for i := range st.consHead {
		st.consHead[i] = -1
	}
	for i := 0; i < e.occ; i++ {
		c := e.slotAt(i)
		if p := st.srcSlot0[c]; p >= 0 {
			node := int32(c) << 1
			st.consNext[node] = st.consHead[p]
			st.consHead[p] = node
		}
		if p := st.srcSlot1[c]; p >= 0 {
			node := int32(c)<<1 | 1
			st.consNext[node] = st.consHead[p]
			st.consHead[p] = node
		}
	}
}

// retire commits finished instructions in order from the head of the
// window, freeing station slots at the configured granularity. It returns
// true when a halt commits. Advancing head replaces the seed engine's
// survivor copy-down: retirement is O(retired), not O(window).
//
//uslint:hotpath
func (e *engine) retire() bool {
	st := &e.st
	g := e.cfg.Granularity
	popped := 0
	for popped < e.occ {
		slot := e.slotAt(popped)
		if !e.finishedSlot(slot) {
			break
		}
		if e.flt != nil {
			if resume, bad := e.flt.checkRetire(e, slot); bad {
				// The commit checker refused the instruction: recover by
				// squashing from it and replaying. The prefix retired this
				// cycle stands; nothing younger survives.
				e.faultRecover(popped, resume)
				return false
			}
		}
		popped++
		e.stats.Retired++
		if e.trc != nil {
			e.trc.Record(obs.EvRetire, e.cycle, st.seq[slot], st.pc[slot], int32(slot), 0)
		}
		if e.traceBuild != nil {
			e.traceBuild.Retire(int(st.pc[slot]))
		}
		if e.cfg.KeepTimeline {
			e.timeline = append(e.timeline, InstRecord{ //uslint:allow hotpathalloc -- opt-in timeline (cfg.KeepTimeline), off in measured runs
				Seq: st.seq[slot], PC: int(st.pc[slot]), Inst: st.inst[slot], Slot: slot,
				Issue: st.issue[slot], Done: st.doneAt[slot],
			})
		}
		if st.writes.get(slot) {
			d := st.dest[slot]
			e.commit[d] = st.result[slot]
			e.commitProducer[d] = st.seq[slot]
			e.commitDoneAt[d] = st.doneAt[slot]
			if e.regWriter[d] == int32(slot) {
				e.regWriter[d] = -1 // newest writer of d now lives in the committed file
			}
		}
		cl := st.class[slot]
		if cl&clsHalt != 0 {
			return true
		}
		if cl&clsMem != 0 {
			e.memCount--
			if e.flt != nil && cl&clsStore != 0 {
				e.flt.dropStore(st.seq[slot])
			}
		}
		// Slot reuse at granularity g: the retiring slot's state bits all
		// clear (keeping every state vec ⊆ busy), the slot drains, and it
		// frees only when its whole aligned group of g slots has drained —
		// one popcount and one range clear. Granularity 1 frees immediately
		// (Ultrascalar I); granularity Window drains the whole batch
		// (Ultrascalar II); granularity C drains per cluster (hybrid).
		for _, v := range st.stateVecs {
			v.clear(slot)
		}
		st.drained.set(slot)
		gLo := slot / g * g
		if st.drained.onesRange(gLo, gLo+g) == g {
			st.drained.clearRange(gLo, gLo+g)
		}
	}
	if popped > 0 {
		e.head += popped
		if e.head >= e.cfg.Window {
			e.head -= e.cfg.Window
		}
		e.occ -= popped
		e.lastRetire = e.cycle
	}
	return false
}

// fetch fills free station slots along the predicted path. The fetch
// width defaults to the window size ("the issue width and the
// instruction-fetch width scale together"); the fetch model decides how
// taken branches limit a cycle's fetch.
//
//uslint:hotpath
func (e *engine) fetch() {
	width := e.cfg.FetchWidth
	if width <= 0 {
		width = e.cfg.Window
	}
	switch e.cfg.Fetch {
	case FetchBlock:
		e.fetchSequential(width, true)
	case FetchTrace:
		if !e.haltStop && !e.jalrWait {
			if tr, ok := e.trace.Lookup(e.fetchPC); ok {
				e.fetchTrace(tr, width)
				return
			}
		}
		e.fetchSequential(width, true)
	default:
		e.fetchSequential(width, false)
	}
}

// fetchSequential fetches along the predicted path; with stopAtTaken it
// ends the cycle's fetch after the first predicted-taken control transfer
// (conventional block fetch).
func (e *engine) fetchSequential(width int, stopAtTaken bool) {
	for fetched := 0; fetched < width; fetched++ {
		slot, ok := e.fetchOne(-1)
		if !ok {
			return
		}
		if stopAtTaken && e.st.inst[slot].ChangesFlow() && e.st.predNext[slot] != e.st.pc[slot]+1 {
			return
		}
	}
}

// fetchTrace supplies a cached trace in one cycle: every instruction's
// predicted successor is the trace's recorded path.
func (e *engine) fetchTrace(tr []int, width int) {
	for i, pc := range tr {
		if i >= width || pc != e.fetchPC {
			return
		}
		forced := -1
		if i+1 < len(tr) {
			forced = tr[i+1]
		}
		if _, ok := e.fetchOne(forced); !ok {
			return
		}
	}
}

// fetchOne fetches the instruction at the current fetch PC into the next
// station slot. forcedNext >= 0 supplies a trace-recorded successor for
// control transfers, bypassing the predictors. It returns the filled slot
// and false when fetch cannot proceed further this cycle.
//
// Only the fields a fresh station needs are written: every state bit of
// the slot was already cleared when it retired or squashed (the state ⊆
// busy invariant), and the stale scalar fields are all written before
// read (operands by the next scan, execution state at issue).
func (e *engine) fetchOne(forcedNext int) (int, bool) {
	if e.haltStop || e.jalrWait || e.occ >= e.cfg.Window {
		return -1, false
	}
	if e.fetchPC < 0 || e.fetchPC >= len(e.prog) {
		return -1, false
	}
	slot := int(e.nextSeq % int64(e.cfg.Window))
	st := &e.st
	if st.busy.get(slot) || st.drained.get(slot) {
		return -1, false
	}
	pc := e.fetchPC
	in := e.prog[pc]
	st.seq[slot] = e.nextSeq
	st.pc[slot] = int32(pc)
	st.inst[slot] = in
	r1, r2, nr := in.ReadRegs()
	st.r1[slot], st.r2[slot] = r1, r2
	st.nsrc[slot] = uint8(nr)
	st.srcN[slot] = 0
	d, wr := in.Writes()
	st.dest[slot] = d
	if wr {
		st.writes.set(slot)
	}
	cl := classify(in)
	st.class[slot] = cl
	if cl&clsLoad != 0 {
		st.load.set(slot)
	}
	if cl&clsStore != 0 {
		st.store.set(slot)
	}
	if cl&clsFlow != 0 {
		st.flow.set(slot)
	}
	if cl&clsBranch != 0 {
		st.branch.set(slot)
	}
	if cl&clsNoALU == 0 {
		st.alu.set(slot)
	}
	if e.wake {
		e.attachOperands(slot)
		if wr {
			if int(d) >= e.cfg.NumRegs {
				if e.fwdErr == nil {
					e.fwdErr = fmt.Errorf("core: %s writes r%d but machine has %d registers", in, d, e.cfg.NumRegs) //uslint:allow hotpathalloc -- cold error path, terminates the run
				}
			} else {
				e.regWriter[d] = int32(slot)
			}
		}
	}
	var predNext int32
	switch {
	case in.IsHalt():
		e.haltStop = true
		predNext = -1
	case in.IsBranch():
		if forcedNext >= 0 {
			predNext = int32(forcedNext)
			break
		}
		var taken bool
		if sp, ok := e.cfg.Predictor.(branch.SpecPredictor); ok {
			var snap int
			taken, snap = sp.PredictSpec(pc)
			st.histSnap[slot] = int32(snap)
			st.usedSpec.set(slot)
		} else {
			taken = e.cfg.Predictor.Predict(pc)
		}
		if taken {
			predNext = int32(pc + 1 + int(in.Imm))
		} else {
			predNext = int32(pc + 1)
		}
	case in.Op == isa.OpJal:
		predNext = int32(pc + 1 + int(in.Imm))
		if e.ras != nil {
			e.ras.Push(pc + 1) // a call's return address
		}
	case in.Op == isa.OpJalr:
		if forcedNext >= 0 {
			predNext = int32(forcedNext)
			break
		}
		if e.ras != nil {
			if addr, ok := e.ras.Pop(); ok {
				predNext = int32(addr)
				break
			}
		}
		predNext = int32(e.cfg.BTB.Predict(pc))
		if predNext < 0 {
			e.jalrWait = true
		}
	default:
		predNext = int32(pc + 1)
	}
	st.predNext[slot] = predNext
	st.busy.set(slot)
	if e.occ == 0 {
		e.head = slot
	}
	e.occ++
	e.nextSeq++
	e.stats.Fetched++
	if e.trc != nil {
		e.trc.Record(obs.EvFetch, e.cycle, st.seq[slot], int32(pc), int32(slot), predNext)
	}
	if cl&clsMem != 0 {
		e.memCount++
	}
	if !e.wake {
		// Full scan: new stations latch at the next scan. Wake mode needs
		// no rescan — attachOperands latched from current producer state.
		e.fwdDirty = true
	}
	if e.haltStop || e.jalrWait {
		return slot, false
	}
	e.fetchPC = int(predNext)
	return slot, true
}
