package core

// Deterministic fault injection (internal/fault) wired into the engine:
// where each fault site strikes the simulated hardware, how the commit
// port detects corruption, and how the squash-and-replay machinery
// recovers from it.
//
// Injection runs from the Run loop between forward and execute, so
// corruption lands on freshly latched operand state exactly as a particle
// strike on the station latches would. Faulted runs forward like every
// other run, through wakeup links, plus forward's heal sweep: on each
// cycle where producer state or the window changes, relatch re-derives
// every unstarted station's latches from its producers, so a corrupted
// latch holds until the wires it samples next change, and a corrupted
// result reaches consumers that had already latched it. Detection runs at
// the retire boundary — parity on the circulating result, or a DIVA-style
// cross-check of every retiring instruction against the in-order golden
// machine of internal/ref. Recovery points the misprediction squash at
// the corrupted station instead of a wrong-path branch: every unretired
// instruction from it on is discarded, speculatively performed stores are
// rolled back from the undo log, and fetch restarts at the refused PC. A
// detected fault therefore costs cycles, never correctness.
//
// Everything below is gated on engine.flt != nil: a run without a fault
// plan pays one pointer test per cycle and per retire, keeping the
// measured hot path allocation-free and bit-identical to the seed.
//
// Stations are addressed through the struct-of-arrays file (soa.go):
// a fault site reads and writes the slot's parallel-slice entries and
// bitmap bits directly, the same state the word-level phases scan.

import (
	"context"
	"sort"

	"ultrascalar/internal/fault"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
	"ultrascalar/internal/obs"
	"ultrascalar/internal/ref"
)

// storeUndo is one speculatively committed store: enough to put the
// overwritten memory word back if fault recovery squashes the store
// before it passes the commit checker.
type storeUndo struct {
	seq  int64
	addr isa.Word
	prev isa.Word
}

// stuckHold is an armed SiteReadyStuck0 fault: the slot's ready latch is
// pinned low until the hold expires (or recovery flushes it).
type stuckHold struct {
	f       fault.Fault
	until   int64 // first cycle the latch is released
	applied bool  // the hold has actually forced a ready bit low
}

// faultState is the engine's fault-injection campaign state.
type faultState struct {
	plan   *fault.Plan
	detect fault.Detect
	log    *fault.Log // may be nil: injection still runs, unrecorded

	next  int // cursor into plan.Faults (sorted by cycle)
	stuck []stuckHold

	// golden is the in-order cross-check machine (DetectGolden only). It
	// owns a clone of the data memory and advances one instruction per
	// matched retirement, so at every commit boundary it holds exactly
	// the architectural state the engine has committed.
	golden *ref.Machine

	// undo logs speculatively performed stores in grant (= age) order;
	// undoHead is the first live entry. Entries retire from the front as
	// their stores pass the checker and roll back from the back on
	// recovery.
	undo     []storeUndo
	undoHead int

	applied            int // faults that landed on live state
	watchdogRecoveries int

	// probe, when set, puts the state in probe mode (ScreenFaults): each
	// scheduled fault is tested against faultLands at its cycle and
	// nothing is ever mutated, so the run stays the clean run.
	probe *faultProbe
}

// faultProbe records, for ScreenFaults, which scheduled faults would land.
type faultProbe struct {
	order   []int  // plan position -> index into the caller's fault list
	landed  []bool // by caller index
	pending []int  // plan positions still to test: each fault at its cycle, ready-stuck0 through its hold
}

// newFaultState arms injection for one run.
func newFaultState(prog []isa.Inst, mem *memory.Flat, cfg Config) *faultState {
	f := &faultState{plan: cfg.FaultPlan, detect: cfg.FaultDetect, log: cfg.FaultLog}
	if cfg.FaultDetect == fault.DetectGolden {
		f.golden = ref.NewMachine(prog, mem.Clone(), cfg.NumRegs, cfg.InitRegs)
	}
	return f
}

// ScreenFaults reports, for each fault, whether it lands on live state
// when it is the only fault of a run of prog on mem under cfg; a fault
// that does not land leaves that run identical to the clean run. It is
// defined for single-fault plans only: once one fault lands, the state
// every later fault would meet is no longer the clean run's.
//
// One probe run decides every fault. It carries a fault state in probe
// mode: at each fault's cycle it evaluates the landing predicate the
// injector uses (for ready-stuck0, on every cycle of the hold) and never
// mutates anything, so it runs the clean run's forwarding path, without
// the heal sweep of a faulted run; the predicate reads only station
// state the sweep would not change. cfg's fault plan, detection and log
// are ignored; mem is mutated as by Run.
func ScreenFaults(ctx context.Context, prog []isa.Inst, mem *memory.Flat, cfg Config, faults []fault.Fault) ([]bool, error) {
	p := &faultProbe{order: make([]int, len(faults)), landed: make([]bool, len(faults))}
	if len(faults) == 0 {
		return p.landed, nil
	}
	for i := range p.order {
		p.order[i] = i
	}
	// The injector walks the plan in cycle order.
	sort.SliceStable(p.order, func(a, b int) bool { return faults[p.order[a]].Cycle < faults[p.order[b]].Cycle })
	plan := &fault.Plan{Faults: make([]fault.Fault, len(faults))}
	for k, i := range p.order {
		plan.Faults[k] = faults[i]
	}
	cfg.FaultPlan, cfg.FaultDetect, cfg.FaultLog = plan, fault.DetectNone, nil
	if _, err := runCtx(ctx, prog, mem, cfg, p); err != nil {
		return nil, err
	}
	return p.landed, nil
}

// faultCycle applies this cycle's scheduled faults and re-asserts active
// stuck-at-0 holds. It runs from the Run loop, after forward latched
// operand state and before execute consumes it.
func (e *engine) faultCycle() {
	f := e.flt
	if f.probe != nil {
		f.probeCycle(e)
		return
	}
	f.tickStuck(e)
	for f.next < len(f.plan.Faults) && f.plan.Faults[f.next].Cycle <= e.cycle {
		e.applyFault(f.plan.Faults[f.next])
		f.next++
	}
}

// holdUntil is the first cycle a ready-stuck0 fault's latch is released.
func holdUntil(fl fault.Fault) int64 {
	return fl.Cycle + max(fl.Dur, 1)
}

// tickStuck re-asserts every armed stuck-at-0 hold (the latch is pinned,
// so each heal sweep's fresh ready bit is forced back low) and releases
// expired holds.
func (f *faultState) tickStuck(e *engine) {
	if len(f.stuck) == 0 {
		return
	}
	kept := f.stuck[:0]
	for _, h := range f.stuck {
		if e.cycle >= h.until {
			// Released: mark the cycle dirty so the next heal sweep
			// restores the station's true readiness.
			e.fwdDirty = true
			continue
		}
		e.holdReady(&h)
		kept = append(kept, h)
	}
	f.stuck = kept
}

// holdReady forces a held station's ready latch low this cycle, if the
// hold's fault lands now.
func (e *engine) holdReady(h *stuckHold) {
	slot, ok := e.faultLands(h.f)
	if !ok {
		return
	}
	e.st.ready.clear(slot)
	if !h.applied {
		h.applied = true
		e.faultApplied(h.f, slot)
	}
}

// probeCycle is faultCycle in probe mode: it records which faults would
// land this cycle and mutates nothing. A ready-stuck0 fault is tested on
// every cycle of its hold window, as tickStuck would re-assert it.
func (f *faultState) probeCycle(e *engine) {
	p := f.probe
	for f.next < len(f.plan.Faults) && f.plan.Faults[f.next].Cycle <= e.cycle {
		p.pending = append(p.pending, f.next)
		f.next++
	}
	kept := p.pending[:0]
	for _, k := range p.pending {
		fl := f.plan.Faults[k]
		if _, ok := e.faultLands(fl); ok {
			p.landed[p.order[k]] = true
		} else if fl.Site == fault.SiteReadyStuck0 && e.cycle+1 < holdUntil(fl) {
			kept = append(kept, k)
		}
	}
	p.pending = kept
}

// faultLands is the read-only landing predicate shared by injection and
// screening: it reports whether fl, struck now, would change live state,
// and the slot it strikes (-1 for register-scoped sites like the
// merge-node fault). A fault falls vacuous when its target is empty or
// ineligible: slot free, instruction already issued, operand not read.
func (e *engine) faultLands(fl fault.Fault) (slot int, ok bool) {
	st := &e.st
	if fl.Site == fault.SiteMergeBit {
		reg := fl.Reg % uint8(e.cfg.NumRegs)
		for i := 0; i < e.occ; i++ {
			if ra, rb := e.mergeReads(e.slotAt(i), reg); ra || rb {
				return -1, true
			}
		}
		return -1, false
	}
	slot = int(fl.Slot) % e.cfg.Window
	if !st.busy.get(slot) {
		return slot, false // no live station in the target slot
	}
	switch fl.Site {
	case fault.SiteResultBit:
		return slot, st.done.get(slot) // a completed result is circulating
	case fault.SiteReadyStuck0:
		return slot, !st.started.get(slot) && st.ready.get(slot)
	case fault.SiteReadyStuck1:
		return slot, !st.started.get(slot) && !st.ready.get(slot)
	case fault.SiteOperandBit, fault.SiteDropForward, fault.SiteDupForward:
		// The operand is latched, not yet consumed, and actually read.
		return slot, !st.started.get(slot) && st.ready.get(slot) && int(fl.Op) < int(st.nsrc[slot])
	}
	return slot, false
}

// mergeReads reports which operands of the station in slot t latch reg
// this cycle through the CSPP merge nodes: only unissued stations latch.
func (e *engine) mergeReads(t int, reg uint8) (a, b bool) {
	st := &e.st
	if st.started.get(t) {
		return false, false
	}
	nr := int(st.nsrc[t])
	return nr >= 1 && st.r1[t] == reg, nr >= 2 && st.r2[t] == reg
}

// applyFault lands one scheduled fault on the microarchitecture when
// faultLands says it lands, and otherwise lets it fall vacuous.
func (e *engine) applyFault(fl fault.Fault) {
	if fl.Site == fault.SiteReadyStuck0 {
		// Arm the hold; the per-cycle re-assert already ran, so force the
		// first cycle of the hold here.
		h := stuckHold{f: fl, until: holdUntil(fl)}
		e.holdReady(&h)
		e.flt.stuck = append(e.flt.stuck, h)
		return
	}
	slot, ok := e.faultLands(fl)
	if !ok {
		return
	}
	st := &e.st
	bit := isa.Word(1) << (fl.Bit % 32)

	switch fl.Site {
	case fault.SiteMergeBit:
		// A CSPP merge node for one register fails: every station latching
		// that register this cycle receives the corrupted value.
		reg := fl.Reg % uint8(e.cfg.NumRegs)
		for i := 0; i < e.occ; i++ {
			t := e.slotAt(i)
			ra, rb := e.mergeReads(t, reg)
			if ra {
				st.a[t] ^= bit
			}
			if rb {
				st.b[t] ^= bit
			}
		}

	case fault.SiteResultBit:
		st.result[slot] ^= bit
		st.parityBad.set(slot) // the latched parity no longer matches
		e.fwdDirty = true      // the corrupt value re-drives the CSPP wires

	case fault.SiteOperandBit:
		if fl.Op == 0 {
			st.a[slot] ^= bit
		} else {
			st.b[slot] ^= bit
		}

	case fault.SiteReadyStuck1:
		// Issues now, with stale latched operands: the station stops
		// listening for its producers, so no wake reaches it once it has
		// started. If it does not start this cycle, the next heal sweep
		// relinks it.
		st.ready.set(slot)
		st.srcSlot[0][slot], st.srcSlot[1][slot] = -1, -1
		e.relinkWakes(0, 0, 0, 0)

	case fault.SiteDropForward:
		// The nearest-producer forward is dropped; the station latches the
		// stale committed register value, as if the segment bit failed open.
		e.setOperand(slot, int(fl.Op), e.commit[e.operandReg(slot, int(fl.Op))])

	case fault.SiteDupForward:
		// A stale merge output wins the wired-OR: the station latches the
		// value of the producer BEFORE its nearest one — the second-closest
		// older in-window writer of the register, or the committed file
		// when there is no such writer (or its value is still unknown).
		r := e.operandReg(slot, int(fl.Op))
		v := e.commit[r]
		seen := 0
		for j := e.occ - 1; j >= 0; j-- {
			t := e.slotAt(j)
			if st.seq[t] >= st.seq[slot] || !st.writes.get(t) || st.dest[t] != r {
				continue
			}
			seen++
			if seen == 2 {
				if st.done.get(t) {
					v = st.result[t]
				}
				break
			}
		}
		e.setOperand(slot, int(fl.Op), v)
	}
	e.faultApplied(fl, slot)
}

// faultApplied accounts one landed fault (slot is -1 for register-scoped
// sites like the merge-node fault).
func (e *engine) faultApplied(fl fault.Fault, slot int) {
	e.flt.applied++
	seq, pc, sl := int64(-1), int32(-1), int32(-1)
	if slot >= 0 {
		seq, pc, sl = e.st.seq[slot], e.st.pc[slot], int32(slot)
	}
	e.flt.log.Add(fault.Record{
		Kind: fault.RecInject, Cycle: e.cycle, Site: fl.Site,
		Seq: seq, PC: pc, Slot: sl,
	})
	if e.trc != nil {
		e.trc.Record(obs.EvFaultInject, e.cycle, seq, pc, sl, int32(fl.Site))
	}
}

// noteStore records a granted store's undo entry and its architectural
// effect before the value reaches memory, so recovery can roll the store
// back and the retire checker can compare it against golden. Stores grant
// in age order (the store-serialization CSPP), so the log stays
// seq-sorted.
//
//uslint:allow hotpathalloc -- fault campaigns only; nil-guarded off the measured path
func (f *faultState) noteStore(e *engine, slot int, addr isa.Word) {
	st := &e.st
	st.storeAddr[slot], st.storeVal[slot] = addr, st.b[slot]
	f.undo = append(f.undo, storeUndo{seq: st.seq[slot], addr: addr, prev: e.mem.Load(addr)})
}

// dropStore retires undo entries up to the given sequence number: their
// stores passed the commit checker and can no longer be rolled back.
//
//uslint:allow hotpathalloc -- fault campaigns only; nil-guarded off the measured path
func (f *faultState) dropStore(seq int64) {
	for f.undoHead < len(f.undo) && f.undo[f.undoHead].seq <= seq {
		f.undoHead++
	}
	if f.undoHead == len(f.undo) {
		f.undo, f.undoHead = f.undo[:0], 0 // reuse the backing array
	}
}

// rollbackStores undoes speculatively performed memory writes of stations
// with sequence numbers >= seq, newest first (the log is seq-sorted, so
// reverse order restores each address's oldest overwritten value last).
func (f *faultState) rollbackStores(mem *memory.Flat, seq int64) {
	for len(f.undo) > f.undoHead {
		u := f.undo[len(f.undo)-1]
		if u.seq < seq {
			break
		}
		mem.Store(u.addr, u.prev)
		f.undo = f.undo[:len(f.undo)-1]
	}
	if f.undoHead == len(f.undo) {
		f.undo, f.undoHead = f.undo[:0], 0
	}
}

// checkRetire models the commit-port checker for one retiring station. It
// reports whether the checker refuses the commit, and the PC recovery
// should resume fetch from.
//
//uslint:allow hotpathalloc -- fault campaigns only; nil-guarded off the measured path
func (f *faultState) checkRetire(e *engine, slot int) (resumePC int, detected bool) {
	switch f.detect {
	case fault.DetectParity:
		// Parity travels with the circulating value; a result whose bits
		// were flipped after parity generation fails the commit-port check.
		if e.st.parityBad.get(slot) {
			f.noteDetect(e, slot, 0)
			return int(e.st.pc[slot]), true
		}

	case fault.DetectGolden:
		m := f.golden
		if m.Halted() {
			// The golden machine commits its halt only when the engine
			// retires a matching halt, which ends the run; unreachable,
			// defensive.
			return 0, false
		}
		eff, err := m.Effect()
		if err != nil {
			// The golden machine cannot even execute here — the engine
			// committed onto a path that leaves the program. Refuse and
			// resume at the golden PC.
			f.noteDetect(e, slot, 0)
			return m.PC(), true
		}
		if !effectMatches(e, slot, eff) {
			f.noteDetect(e, slot, 0)
			return eff.PC, true
		}
		m.Advance(eff)
	}
	return 0, false
}

// effectMatches reports whether a retiring station's architectural effect
// agrees with the golden machine's. A matching PC implies the same static
// instruction (same program), so the comparison is over the dynamic
// values: register result, store address and value, and the actual
// control-flow successor. Loads compare the loaded value rather than
// re-deriving the address — equal values commit equal state.
func effectMatches(e *engine, slot int, eff ref.Effect) bool {
	st := &e.st
	if eff.PC != int(st.pc[slot]) {
		return false
	}
	cl := st.class[slot]
	if eff.Halt || cl&clsHalt != 0 {
		return eff.Halt && cl&clsHalt != 0
	}
	writes := st.writes.get(slot)
	if eff.WritesReg != writes {
		return false
	}
	if eff.WritesReg && (eff.Reg != st.dest[slot] || eff.RegVal != st.result[slot]) {
		return false
	}
	if eff.IsStore && (st.storeAddr[slot] != eff.Addr || st.storeVal[slot] != eff.StoreVal) {
		return false
	}
	if cl&clsFlow != 0 && int(st.actualNext[slot]) != eff.Next {
		return false
	}
	return true
}

// noteDetect accounts one checker refusal (arg 1 marks a watchdog fire).
func (f *faultState) noteDetect(e *engine, slot int, arg int32) {
	f.log.Add(fault.Record{
		Kind: fault.RecDetect, Cycle: e.cycle,
		Seq: e.st.seq[slot], PC: e.st.pc[slot], Slot: int32(slot),
	})
	if e.trc != nil {
		e.trc.Record(obs.EvFaultDetect, e.cycle, e.st.seq[slot], e.st.pc[slot], int32(slot), arg)
	}
}

// faultRecover is squash-and-replay pointed at a corrupted station at the
// head of the window: every unretired instruction is squashed through
// the misprediction squash (squashFrom), its speculatively performed
// stores are rolled back, and fetch restarts at resumePC with the
// sequence counter reset. The already-retired prefix passed the checker
// and stands.
//
//uslint:allow hotpathalloc -- fault campaigns only; nil-guarded off the measured path
func (e *engine) faultRecover(resumePC int) {
	f := e.flt
	seq0 := e.st.seq[e.head]
	f.rollbackStores(e.mem, seq0)
	squashed := e.occ
	// Nothing unretired survives: the window empties, and with it the
	// rename table, the consumer lists and the wake queue (fetch re-anchors
	// head at the next slot). Replay refills it from resumePC this same
	// cycle.
	e.squashFrom(0, int32(resumePC))
	e.nextSeq = seq0
	e.fetchPC = resumePC
	e.haltStop, e.jalrWait = false, false
	e.fwdDirty = true
	e.lastRetire = e.cycle // recovery is forward progress
	f.stuck = f.stuck[:0]  // pinned latches are cleared by the flush
	f.log.Add(fault.Record{
		Kind: fault.RecRecover, Cycle: e.cycle,
		Seq: seq0, PC: int32(resumePC), Slot: -1, Arg: int64(squashed),
	})
	if e.trc != nil {
		e.trc.Record(obs.EvFaultRecover, e.cycle, seq0, int32(resumePC), -1, int32(squashed))
	}
}

// watchdogRecover attempts fault recovery when the livelock watchdog
// fires during an injection run: a stuck-at-0 hold (or an issued-stale
// deadlock) has starved retirement, so flush the whole window and replay
// from the head. It reports false when recovery cannot help — no faults
// ever landed, or recovery already ran once per landed fault without
// restoring progress — in which case Run returns the livelock error.
func (e *engine) watchdogRecover() bool {
	f := e.flt
	if f == nil || f.applied == 0 || e.occ == 0 {
		return false
	}
	if f.watchdogRecoveries >= f.applied {
		return false // recovery is not restoring progress; report the livelock
	}
	f.watchdogRecoveries++
	head := e.slotAt(0)
	resume := int(e.st.pc[head])
	if f.golden != nil {
		resume = f.golden.PC()
	}
	f.log.Add(fault.Record{
		Kind: fault.RecWatchdog, Cycle: e.cycle,
		Seq: e.st.seq[head], PC: e.st.pc[head], Slot: int32(head),
	})
	f.noteDetect(e, head, 1)
	e.faultRecover(resume)
	return true
}
