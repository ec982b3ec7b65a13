// Package gatesim is a second, independent implementation of the
// Ultrascalar I: a simulator whose register forwarding and sequencing are
// computed every clock cycle by evaluating the actual gate-level netlists
// from internal/circuit — the CSPP register trees of Figure 4 and the
// 1-bit sequencing CSPP of Figure 5 — rather than by the functional
// shortcuts of internal/core. Execution stations remain behavioural cells
// (decode + ALU), exactly as in the paper's own Magic layouts, where the
// CSPP datapath is the novel fabric and the ALU a standard block.
//
// gatesim exists as an end-to-end validation artifact: programs run
// through real gates must produce the same architectural results as the
// golden interpreter, which the tests check on the whole kernel suite.
// Cycle counts match the core engine only on straight-line code
// (TestStraightLineCyclesMatchEngine). The datapath figures include no
// branch predictor, so fetch here stalls at every control transfer until
// it resolves, and branching code takes more cycles than on the engine
// (experiment E18: collatz takes 2199 gate-level cycles against the
// engine's 1409). It is restricted to the Ultrascalar I feature set the
// datapath figures show: straight-line and branching integer code
// without the core engine's optional extensions, with loads/stores
// against fixed-latency memory.
//
// Each netlist is evaluated incrementally (circuit.Evaluator): the
// simulators keep one instance per copy of the circuit the hardware
// holds, so each cycle re-evaluates only the gates whose inputs changed
// since that copy's previous cycle.
package gatesim

import (
	"errors"
	"fmt"

	"ultrascalar/internal/circuit"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
)

// ErrNoHalt is returned when the cycle limit is exhausted.
var ErrNoHalt = errors.New("gatesim: cycle limit exceeded without halt")

// Config sizes the gate-level processor.
type Config struct {
	Window    int // execution stations n (the ring size)
	NumRegs   int // logical registers L
	Width     int // datapath bits W (values are truncated to Width bits)
	Lat       isa.Latencies
	MaxCycles int64
	// MemBandwidth, when positive, arbitrates each cycle's memory
	// accesses through the gate-level fat-tree arbiter netlist
	// (circuit.FatTreeArbiter) with per-level capacities min(2^h, M) —
	// the "M" nodes of the paper's Figure 6, in gates. 0 disables
	// arbitration (unlimited bandwidth).
	MemBandwidth int
}

// Result is the outcome of a gate-level run.
type Result struct {
	Regs    []isa.Word
	Mem     *memory.Flat
	Cycles  int64
	Retired int64
}

// registerCSPPs is the Figure 4 register datapath: one instance of the
// RegisterCSPP netlist per logical register. Inputs per station:
// modified, then the W-bit value and its ready bit; outputs per station:
// the incoming value and ready bit. The hardware replicates the netlist L
// times, so every instance shares one netlist but keeps its own values.
type registerCSPPs struct {
	n, w int
	regs []*circuit.Evaluator
	in   []bool // input vector, reused by every call
	outV []isa.Word
	outR []bool
}

func newRegisterCSPPs(n, l, w int) *registerCSPPs {
	c := circuit.RegisterCSPP(n, w+1, true)
	f := &registerCSPPs{
		n: n, w: w,
		regs: make([]*circuit.Evaluator, l),
		in:   make([]bool, 0, n*(2+w)),
		outV: make([]isa.Word, n),
		outR: make([]bool, n),
	}
	for r := range f.regs {
		f.regs[r] = c.NewEvaluator()
	}
	return f
}

// forward evaluates register r's CSPP instance. vals and readys are the
// per-station inserted values; modified marks inserting stations (the
// oldest must be marked by the caller). The returned slices are
// overwritten by the next call.
func (f *registerCSPPs) forward(r int, modified []bool, vals []isa.Word, readys []bool) ([]isa.Word, []bool) {
	in := f.in[:0]
	for i := 0; i < f.n; i++ {
		in = append(in, modified[i])
		v := vals[i]
		for b := 0; b < f.w; b++ {
			in = append(in, v>>uint(b)&1 == 1)
		}
		in = append(in, readys[i])
	}
	raw := f.regs[r].Eval(in)
	stride := f.w + 1
	for i := 0; i < f.n; i++ {
		var v isa.Word
		for b := 0; b < f.w; b++ {
			if raw[i*stride+b] {
				v |= 1 << uint(b)
			}
		}
		f.outV[i] = v
		f.outR[i] = raw[i*stride+f.w]
	}
	return f.outV, f.outR
}

// datapath holds the Ultrascalar I's netlist instances, built once per
// run.
type datapath struct {
	n    int
	regs *registerCSPPs
	// storesDone and memOpsDone are the two Figure 5 instances: inputs
	// per station (segment, condition); outputs per station (all earlier
	// stations met it).
	storesDone, memOpsDone *circuit.Evaluator
	seqIn                  []bool
}

func newDatapath(n, l, w int) *datapath {
	seq := circuit.Figure5CSPP(n, true)
	return &datapath{
		n:          n,
		regs:       newRegisterCSPPs(n, l, w),
		storesDone: seq.NewEvaluator(),
		memOpsDone: seq.NewEvaluator(),
		seqIn:      make([]bool, 0, 2*n),
	}
}

// allEarlier evaluates a Figure 5 instance: out[i] reports whether every
// station from the oldest up to (excluding) i met the condition. The
// oldest station's own output is forced true (it has no earlier
// stations), as in internal/cspp.AllEarlierTrue. The result is the
// instance's output buffer, valid until its next call; forcing one entry
// there is safe because every call rewrites the whole buffer.
func (d *datapath) allEarlier(seq *circuit.Evaluator, met []bool, oldest int) []bool {
	in := d.seqIn[:0]
	for i := 0; i < d.n; i++ {
		in = append(in, i == oldest, met[i])
	}
	out := seq.Eval(in)
	out[oldest] = true
	return out
}

// station is one execution station of the ring.
type station struct {
	valid bool
	inst  isa.Inst
	pc    int
	seq   int64

	// Latched incoming register file (updated every cycle unless oldest).
	regs  []isa.Word
	ready []bool

	started   bool
	remaining int
	done      bool
	result    isa.Word
	resolved  bool
	nextPC    int
	memDone   bool
}

// Run executes prog on the gate-level Ultrascalar I. Branches stall fetch
// until resolved (the datapath figures do not include a predictor; fetch
// follows the architectural path), so cycle counts are comparable to a
// core engine configured without speculation benefits, while
// architectural results must equal the golden interpreter exactly.
func Run(prog []isa.Inst, mem *memory.Flat, cfg Config) (*Result, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("gatesim: window must be >= 1")
	}
	if cfg.NumRegs == 0 {
		cfg.NumRegs = 8
	}
	if cfg.Width == 0 {
		cfg.Width = 8
	}
	if cfg.Lat == (isa.Latencies{}) {
		cfg.Lat = isa.DefaultLatencies()
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 20
	}
	n, l, w := cfg.Window, cfg.NumRegs, cfg.Width
	mask := isa.Word(1)<<uint(w) - 1
	d := newDatapath(n, l, w)
	var arb *memArbiter
	if cfg.MemBandwidth > 0 {
		arb = newMemArbiter(n, cfg.MemBandwidth)
	}

	ring := make([]*station, n)
	for i := range ring {
		ring[i] = &station{regs: make([]isa.Word, l), ready: make([]bool, l)}
	}
	commit := make([]isa.Word, l)
	oldestPos := 0
	count := 0
	fetchPC := 0
	fetchStalled := false
	var nextSeq, retired int64

	posOf := func(k int) int { return (oldestPos + k) % n } // k-th oldest

	fill := func() error {
		for count < n && !fetchStalled {
			if fetchPC < 0 || fetchPC >= len(prog) {
				if count == 0 {
					return fmt.Errorf("gatesim: fetch ran out of program at pc=%d", fetchPC)
				}
				return nil
			}
			in := prog[fetchPC]
			for _, r := range in.Reads() {
				if int(r) >= l {
					return fmt.Errorf("gatesim: %s reads r%d, machine has %d registers", in, r, l)
				}
			}
			if dst, ok := in.Writes(); ok && int(dst) >= l {
				return fmt.Errorf("gatesim: %s writes r%d, machine has %d registers", in, dst, l)
			}
			s := ring[posOf(count)]
			*s = station{valid: true, inst: in, pc: fetchPC, seq: nextSeq,
				regs: s.regs, ready: s.ready}
			nextSeq++
			count++
			if in.ChangesFlow() || in.IsHalt() {
				// No predictor in the datapath figures: stall fetch until
				// the transfer resolves.
				fetchStalled = true
				return nil
			}
			fetchPC++
		}
		return nil
	}
	if err := fill(); err != nil {
		return nil, err
	}

	// Per-cycle reusable buffers.
	modified := make([]bool, n)
	insVal := make([]isa.Word, n)
	insReady := make([]bool, n)
	met := make([]bool, n)

	for cycle := int64(0); cycle < cfg.MaxCycles; cycle++ {
		// Phase 1: drive the register datapath, one CSPP tree per
		// register, and latch incoming values into every non-oldest
		// station's register file (paper: "Each station, other than the
		// oldest, latches all of its incoming values").
		for r := 0; r < l; r++ {
			for k := 0; k < n; k++ {
				p := posOf(k)
				s := ring[p]
				isOldest := k == 0
				mod := false
				val := isa.Word(0)
				rdy := false
				if isOldest {
					// The oldest station marks every register modified and
					// inserts the committed register file — except for the
					// register its own instruction writes, where it inserts
					// its result ("the station inserts the result into the
					// outgoing register datapath. The rest of the outgoing
					// registers are set from the register file").
					mod = true
					if dst, ok := s.inst.Writes(); s.valid && ok && int(dst) == r {
						val = s.result & mask
						rdy = s.done
					} else {
						val = commit[r] & mask
						rdy = true
					}
				} else if s.valid {
					if dst, ok := s.inst.Writes(); ok && int(dst) == r {
						mod = true
						val = s.result & mask
						rdy = s.done
					}
				}
				modified[p] = mod
				insVal[p] = val
				insReady[p] = rdy
			}
			outV, outR := d.regs.forward(r, modified, insVal, insReady)
			for k := 1; k < n; k++ { // oldest does not latch
				p := posOf(k)
				if ring[p].valid {
					ring[p].regs[r] = outV[p]
					ring[p].ready[r] = outR[p]
				}
			}
			// The oldest station's file is the committed state.
			ring[posOf(0)].regs[r] = commit[r] & mask
			ring[posOf(0)].ready[r] = true
		}

		// Phase 2: sequencing CSPPs (Figure 5 instances): stores-done and
		// mem-done conditions for load/store serialization.
		for k := 0; k < n; k++ {
			p := posOf(k)
			s := ring[p]
			met[p] = !s.valid || !s.inst.IsStore() || s.memDone
		}
		storesDone := d.allEarlier(d.storesDone, met, posOf(0))
		for k := 0; k < n; k++ {
			p := posOf(k)
			s := ring[p]
			met[p] = !s.valid || !s.inst.IsMem() || s.memDone
		}
		memOpsDone := d.allEarlier(d.memOpsDone, met, posOf(0))

		// Phase 3: execute. With gate-level memory arbitration, first
		// collect this cycle's eligible memory accesses and run them
		// through the fat-tree arbiter netlist; only granted stations may
		// begin their access.
		var memGrant []bool
		if arb != nil {
			reqs := make([]bool, n)
			ages := make([]int, n)
			for k := 0; k < n; k++ {
				p := posOf(k)
				s := ring[p]
				ages[p] = k
				if !s.valid || s.done || s.started || !s.inst.IsMem() {
					continue
				}
				ready := true
				for _, r := range s.inst.Reads() {
					if !s.ready[r] {
						ready = false
						break
					}
				}
				if !ready {
					continue
				}
				if s.inst.IsLoad() && !storesDone[p] {
					continue
				}
				if s.inst.IsStore() && !memOpsDone[p] {
					continue
				}
				reqs[p] = true
			}
			memGrant = arb.grants(reqs, ages)
		}
		for k := 0; k < n; k++ {
			s := ring[posOf(k)]
			if !s.valid || s.done {
				continue
			}
			if arb != nil && s.inst.IsMem() && !s.started && !memGrant[posOf(k)] {
				continue
			}
			in := s.inst
			ready := true
			var a, b isa.Word
			reads := in.Reads()
			for j, r := range reads {
				if !s.ready[r] {
					ready = false
					break
				}
				if j == 0 {
					a = s.regs[r]
				} else {
					b = s.regs[r]
				}
			}
			if !ready {
				continue
			}
			if !s.started {
				switch {
				case in.IsLoad():
					if !storesDone[posOf(k)] {
						continue
					}
				case in.IsStore():
					if !memOpsDone[posOf(k)] {
						continue
					}
				}
				s.started = true
				s.remaining = cfg.Lat.Of(in)
			}
			s.remaining--
			if s.remaining > 0 {
				continue
			}
			s.done = true
			switch {
			case in.IsHalt() || in.Op == isa.OpNop:
			case in.IsLoad():
				s.result = mem.Load(isa.EffAddr(in, a)) & mask
				s.memDone = true
			case in.IsStore():
				mem.Store(isa.EffAddr(in, a), b&mask)
				s.memDone = true
			case in.IsBranch():
				s.resolved = true
				s.nextPC = isa.NextPC(in, s.pc, a, b)
			case in.IsJump():
				s.resolved = true
				s.nextPC = isa.NextPC(in, s.pc, a, b)
				s.result = isa.Word(s.pc+1) & mask
			default:
				s.result = isa.ALUOp(in, a, b) & mask
			}
			if (in.ChangesFlow() || in.IsHalt()) && fetchStalled {
				if in.IsHalt() {
					// Fetch stays stalled; retirement ends the run.
				} else {
					fetchPC = s.nextPC
					fetchStalled = false
				}
			}
		}

		// Phase 4: retire in order from the oldest station.
		for count > 0 {
			s := ring[posOf(0)]
			if !s.valid || !s.done {
				break
			}
			if dst, ok := s.inst.Writes(); ok {
				commit[dst] = s.result & mask
			}
			retired++
			halt := s.inst.IsHalt()
			s.valid = false
			oldestPos = posOf(1)
			count--
			if halt {
				return &Result{Regs: commit, Mem: mem, Cycles: cycle + 1, Retired: retired}, nil
			}
		}

		// Phase 5: refill freed stations.
		if err := fill(); err != nil {
			return nil, err
		}
	}
	return nil, ErrNoHalt
}
