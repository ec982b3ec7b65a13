package gatesim

import (
	"errors"
	"fmt"

	"ultrascalar/internal/circuit"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
)

// Gate-level Ultrascalar II: batches of instructions execute against the
// actual grid netlist of the paper's Figures 7-8 (comparators searching
// register bindings, reduction columns delivering arguments). Every cycle
// the grid is re-evaluated combinationally from the stations' current
// results — exactly the hardware's behaviour, where "on every clock
// cycle, stations with ready arguments compute and newly computed results
// propagate through the network. Eventually, all stations finish
// computing and the final values of all the registers are ready. At that
// time, the final values are latched into the register file [and] the
// stations refill with new instructions."

// ErrUltra2Flow is returned when a program's control transfer lands
// outside the program.
var ErrUltra2Flow = errors.New("gatesim: control flow left the program")

// u2station is one station of the current batch.
type u2station struct {
	inst isa.Inst
	pc   int

	started   bool
	remaining int
	done      bool
	result    isa.Word
	resolved  bool
	nextPC    int
	memDone   bool
	argsA     isa.Word
	argsB     isa.Word
	argsOK    bool
}

// RunUltra2 executes prog on a gate-level Ultrascalar II of n stations.
// Fetch follows the architectural path (resolving each batch's trailing
// control transfer before refilling past it), loads and stores serialize
// in program order within the batch, and the whole batch drains before
// the next is fetched — the paper's non-wrap-around semantics.
func RunUltra2(prog []isa.Inst, mem *memory.Flat, cfg Config) (*Result, error) {
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
	grid := newU2Grid(circuit.Ultra2Grid(n, l, w, true))
	var arb *memArbiter
	if cfg.MemBandwidth > 0 {
		arb = newMemArbiter(n, cfg.MemBandwidth)
	}

	commit := make([]isa.Word, l)
	var cycles, retired int64
	pc := 0

	for cycles < cfg.MaxCycles {
		// Fetch one batch along the architectural path: sequential
		// instructions up to n, stopping after a control transfer or
		// halt (resolved before the next batch) or at the window size.
		batch := make([]*u2station, 0, n)
		haltIdx := -1
		for len(batch) < n {
			if pc < 0 || pc >= len(prog) {
				if len(batch) == 0 {
					return nil, fmt.Errorf("%w: pc=%d", ErrUltra2Flow, pc)
				}
				break
			}
			in := prog[pc]
			for _, r := range in.Reads() {
				if int(r) >= l {
					return nil, fmt.Errorf("gatesim: %s reads r%d, machine has %d registers", in, r, l)
				}
			}
			if dst, ok := in.Writes(); ok && int(dst) >= l {
				return nil, fmt.Errorf("gatesim: %s writes r%d, machine has %d registers", in, dst, l)
			}
			batch = append(batch, &u2station{inst: in, pc: pc})
			if in.IsHalt() {
				haltIdx = len(batch) - 1
				break
			}
			if in.ChangesFlow() {
				break // resolve before fetching past it
			}
			pc++
		}

		// Execute the batch to completion, re-evaluating the grid
		// netlist each cycle.
		for !batchDone(batch) {
			if cycles >= cfg.MaxCycles {
				return nil, ErrNoHalt
			}
			grid.route(commit, nil, batch, mask)
			var memGrant []bool
			if arb != nil {
				reqs := make([]bool, n)
				ages := make([]int, n)
				sd, md := true, true
				for i, s := range batch {
					ages[i] = i
					eligible := !s.done && !s.started && s.argsOK && s.inst.IsMem() &&
						(!s.inst.IsLoad() || sd) && (!s.inst.IsStore() || md)
					reqs[i] = eligible
					if s.inst.IsStore() {
						sd = sd && s.memDone
						md = md && s.memDone
					}
					if s.inst.IsLoad() {
						md = md && s.memDone
					}
				}
				memGrant = arb.grants(reqs, ages)
			}
			storesDone, memDone := true, true
			for i, s := range batch {
				sd, md := storesDone, memDone
				if s.inst.IsStore() {
					storesDone = storesDone && s.memDone
					memDone = memDone && s.memDone
				}
				if s.inst.IsLoad() {
					memDone = memDone && s.memDone
				}
				if s.done || !s.argsOK {
					continue
				}
				if s.inst.IsLoad() && !sd {
					continue
				}
				if s.inst.IsStore() && !md {
					continue
				}
				if arb != nil && s.inst.IsMem() && !s.started && !memGrant[i] {
					continue
				}
				if !s.started {
					s.started = true
					s.remaining = cfg.Lat.Of(s.inst)
				}
				s.remaining--
				if s.remaining > 0 {
					continue
				}
				s.done = true
				in := s.inst
				switch {
				case in.IsHalt() || in.Op == isa.OpNop:
				case in.IsLoad():
					s.result = mem.Load(isa.EffAddr(in, s.argsA)) & mask
					s.memDone = true
				case in.IsStore():
					mem.Store(isa.EffAddr(in, s.argsA), s.argsB&mask)
					s.memDone = true
				case in.IsBranch(), in.IsJump():
					s.resolved = true
					s.nextPC = isa.NextPC(in, s.pc, s.argsA, s.argsB)
					s.result = isa.Word(s.pc+1) & mask // link (jumps only)
				default:
					s.result = isa.ALUOp(in, s.argsA, s.argsB) & mask
				}
			}
			cycles++
		}

		// Batch complete: latch the final register values (the grid's
		// outgoing columns) into the register file and refill.
		grid.latchOutgoing(commit, batch, mask)
		retired += int64(len(batch))
		if haltIdx >= 0 {
			return &Result{Regs: commit, Mem: mem, Cycles: cycles, Retired: retired}, nil
		}
		last := batch[len(batch)-1]
		if last.inst.ChangesFlow() {
			pc = last.nextPC
		}
	}
	return nil, ErrNoHalt
}

func batchDone(batch []*u2station) bool {
	for _, s := range batch {
		if !s.done {
			return false
		}
	}
	return true
}

// u2grid is one instance of the Ultrascalar II grid netlist: the
// hardware's grid keeps its values between cycles, and so does the
// instance, so each cycle re-evaluates only what the stations changed.
type u2grid struct {
	ev  *circuit.Evaluator
	lay circuit.Ultra2Layout
	in  []bool
}

func newU2Grid(c *circuit.Circuit, lay circuit.Ultra2Layout) *u2grid {
	return &u2grid{ev: c.NewEvaluator(), lay: lay, in: make([]bool, 0, lay.NumInputs())}
}

// eval drives the grid and returns its raw outputs, valid until the next
// call. Initial register r holds vals[r], ready when readys[r] (readys nil
// means all ready); station s holds stations[s], absent when nil or past
// the end. final drives every station as done and requesting no
// arguments, so the outgoing columns carry the batch's final values.
func (g *u2grid) eval(vals []isa.Word, readys []bool, stations []*u2station, mask isa.Word, final bool) []bool {
	lay := g.lay
	in := g.in[:0]
	push := func(v uint64, bits int) {
		for b := 0; b < bits; b++ {
			in = append(in, v>>uint(b)&1 == 1)
		}
	}
	for r := 0; r < lay.L; r++ {
		v := uint64(vals[r] & mask)
		if readys == nil || readys[r] {
			v |= 1 << uint(lay.W)
		}
		push(v, lay.W+1)
	}
	for s := 0; s < lay.N; s++ {
		var st *u2station
		if s < len(stations) {
			st = stations[s]
		}
		var dest uint64
		var writes bool
		var result uint64
		var argA, argB uint64
		if st != nil {
			if d, ok := st.inst.Writes(); ok {
				dest, writes = uint64(d), true
			}
			result = uint64(st.result & mask)
			if st.done || final {
				result |= 1 << uint(lay.W) // ready bit
			}
			if !final {
				reads := st.inst.Reads()
				if len(reads) > 0 {
					argA = uint64(reads[0])
				}
				if len(reads) > 1 {
					argB = uint64(reads[1])
				}
			}
		}
		push(dest, lay.DestW)
		in = append(in, writes)
		push(result, lay.W+1)
		push(argA, lay.DestW)
		push(argB, lay.DestW)
	}
	return g.ev.Eval(in)
}

// route drives the grid with the stations' current state over the given
// initial register file and captures each station's delivered arguments.
func (g *u2grid) route(vals []isa.Word, readys []bool, stations []*u2station, mask isa.Word) {
	raw := g.eval(vals, readys, stations, mask, false)
	lay := g.lay
	pull := func(off int) (isa.Word, bool) {
		var v isa.Word
		for b := 0; b < lay.W; b++ {
			if raw[off+b] {
				v |= 1 << uint(b)
			}
		}
		return v, raw[off+lay.W]
	}
	for s, st := range stations {
		if st == nil {
			continue
		}
		a, aOK := pull((2*s + 0) * (lay.W + 1))
		b, bOK := pull((2*s + 1) * (lay.W + 1))
		reads := st.inst.Reads()
		ok := true
		if len(reads) > 0 && !aOK {
			ok = false
		}
		if len(reads) > 1 && !bOK {
			ok = false
		}
		st.argsA, st.argsB, st.argsOK = a, b, ok
	}
}

// latchOutgoing re-evaluates the grid with the whole batch done and
// latches its outgoing register columns (the final value of every
// logical register) into the committed register file.
func (g *u2grid) latchOutgoing(commit []isa.Word, batch []*u2station, mask isa.Word) {
	raw := g.eval(commit, nil, batch, mask, true)
	lay := g.lay
	base := lay.N * 2 * (lay.W + 1)
	for r := 0; r < lay.L; r++ {
		var v isa.Word
		off := base + r*(lay.W+1)
		for b := 0; b < lay.W; b++ {
			if raw[off+b] {
				v |= 1 << uint(b)
			}
		}
		commit[r] = v
	}
}
