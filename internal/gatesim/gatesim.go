// Package gatesim is a second, independent implementation of the
// Ultrascalar processors: a simulator whose register forwarding and
// sequencing are computed every clock cycle by evaluating the actual
// gate-level netlists from internal/circuit — the CSPP register trees of
// Figure 4, the 1-bit sequencing CSPPs of Figure 5, the Ultrascalar II
// grid of Figures 7-8 and the hybrid's Figure 9 modified-bit circuit —
// rather than by the functional shortcuts of internal/core. Execution
// stations remain behavioural cells (decode + ALU), exactly as in the
// paper's own Magic layouts, where the datapath is the novel fabric and
// the ALU a standard block.
//
// One machine covers all three designs. The window of n stations is a
// ring of n/g refill units of g stations each: each unit is an
// Ultrascalar II grid (when g > 1), and the units are joined by the
// Ultrascalar I register CSPPs (when n/g > 1). Run is g = 1 (the
// Ultrascalar I), RunHybrid is g = C (the paper's Section 6 hybrid) and
// RunUltra2 is g = n (the Ultrascalar II, whose whole batch drains before
// it refills).
//
// gatesim exists as an end-to-end validation artifact: programs run
// through real gates must produce the same architectural results as the
// golden interpreter, which the tests check on the whole kernel suite.
// Cycle counts match the core engine only on straight-line code
// (TestStraightLineCyclesMatchEngine). The datapath figures include no
// branch predictor, so fetch here stalls at every control transfer until
// it resolves, and branching code takes more cycles than on the engine
// (experiment E18: collatz takes 2199 gate-level cycles against the
// engine's 1409). The machine runs straight-line and branching integer
// code without the core engine's optional extensions, with loads and
// stores against fixed-latency memory.
//
// Each netlist is evaluated incrementally (circuit.Evaluator): the
// simulator keeps one instance per copy of the circuit the hardware
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

// HybridConfig sizes the gate-level hybrid.
type HybridConfig struct {
	Window    int // total stations n
	Cluster   int // stations per cluster C
	NumRegs   int
	Width     int
	Lat       isa.Latencies
	MaxCycles int64
}

// Result is the outcome of a gate-level run.
type Result struct {
	Regs    []isa.Word
	Mem     *memory.Flat
	Cycles  int64
	Retired int64
}

// Run executes prog on the gate-level Ultrascalar I: every station is its
// own refill unit, joined to the others by the Figure 4 CSPPs. Branches
// stall fetch until resolved (the datapath figures do not include a
// predictor; fetch follows the architectural path), so cycle counts are
// comparable to a core engine configured without speculation benefits,
// while architectural results must equal the golden interpreter exactly.
func Run(prog []isa.Inst, mem *memory.Flat, cfg Config) (*Result, error) {
	return run(prog, mem, cfg, 1)
}

// RunUltra2 executes prog on a gate-level Ultrascalar II of n stations:
// one refill unit whose batch executes against the Figure 7/8 grid.
// Fetch follows the architectural path (a batch ends at its first control
// transfer, which resolves before the next batch is fetched), loads and
// stores serialize in program order, and the whole batch drains before
// the next is fetched — the paper's non-wrap-around semantics.
func RunUltra2(prog []isa.Inst, mem *memory.Flat, cfg Config) (*Result, error) {
	return run(prog, mem, cfg, cfg.Window)
}

// RunHybrid executes prog on the gate-level hybrid (paper Section 6,
// Figures 9-10): clusters of C stations, each an Ultrascalar II grid
// whose Figure 9 OR circuit supplies its modified bits, joined by the
// Ultrascalar I CSPPs at cluster granularity. "From the viewpoint of the
// Ultrascalar I part of the datapath, a single cluster behaves just like
// a subtree of [C] stations." Fetch stalls at control transfers until
// they resolve; clusters refill as units once all their instructions and
// all earlier instructions have finished.
func RunHybrid(prog []isa.Inst, mem *memory.Flat, cfg HybridConfig) (*Result, error) {
	if cfg.Window < 1 || cfg.Cluster < 1 || cfg.Window%cfg.Cluster != 0 {
		return nil, fmt.Errorf("gatesim: bad hybrid geometry n=%d C=%d", cfg.Window, cfg.Cluster)
	}
	return run(prog, mem, Config{Window: cfg.Window, NumRegs: cfg.NumRegs, Width: cfg.Width,
		Lat: cfg.Lat, MaxCycles: cfg.MaxCycles}, cfg.Cluster)
}

// station is one execution station.
type station struct {
	inst      isa.Inst
	pc        int
	started   bool
	remaining int
	done      bool
	memDone   bool
	result    isa.Word
	nextPC    int
	// Arguments delivered this cycle, and whether all the instruction
	// reads are ready.
	argA, argB isa.Word
	argsOK     bool
}

// mayStart reports whether the station may work this cycle: its
// arguments are ready and, before it starts, a load has every earlier
// store done and a store every earlier memory access (the Figure 5
// outputs at its slot).
func (s *station) mayStart(storesDone, memOpsDone bool) bool {
	return s.argsOK && (s.started ||
		(!s.inst.IsLoad() || storesDone) && (!s.inst.IsStore() || memOpsDone))
}

// unit is one refill unit of the ring: g stations that are fetched,
// retired and refilled together.
type unit struct {
	stations []*station // the loaded batch (at most g); empty when free
	pool     []station  // backing store of stations
	// inVal and inReady are the unit's latched incoming register file:
	// the committed file for the oldest unit, the values delivered by the
	// Figure 4 CSPPs for the others.
	inVal   []isa.Word
	inReady []bool
	// modified holds the unit's Figure 9 modified bits, computed once per
	// refill; modIn is the OR netlist's input buffer.
	modified []bool
	modIn    []bool
	grid     *u2grid // the unit's own grid instance; nil when g == 1
}

// outgoing is what the unit inserts into register r's Figure 4 CSPP:
// for a register its Figure 9 bit marks, the value and ready bit of the
// newest station writing it (found by scanning the stations); otherwise
// the committed value in the oldest unit, and nothing in the others.
func (u *unit) outgoing(r int, oldest bool, committed isa.Word) (bool, isa.Word, bool) {
	if len(u.stations) > 0 && u.modified[r] {
		var v isa.Word
		rdy := false
		for _, s := range u.stations {
			if d, ok := s.inst.Writes(); ok && int(d) == r {
				v, rdy = s.result, s.done
			}
		}
		return true, v, rdy
	}
	if oldest {
		return true, committed, true
	}
	return false, 0, false
}

// run is the machine with refill granularity g (a divisor of the window).
func run(prog []isa.Inst, mem *memory.Flat, cfg Config, g int) (*Result, error) {
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
	nu := n / g
	mask := isa.Word(1)<<uint(w) - 1

	// The netlist instances: Figure 4 CSPPs and Figure 9 OR circuits
	// between units, a Figure 7/8 grid inside each unit, the Figure 5
	// sequencing CSPPs and the optional fat-tree arbiter over all
	// stations.
	var inter *registerCSPPs
	var modOR *circuit.Evaluator
	if nu > 1 {
		inter = newRegisterCSPPs(nu, l, w)
		modOR = circuit.HybridModifiedBits(g, l, true).NewEvaluator()
	}
	var grid *circuit.Circuit
	var lay circuit.Ultra2Layout
	if g > 1 {
		grid, lay = circuit.Ultra2Grid(g, l, w, true)
	}
	seq := newSequencer(n)
	var arb *memArbiter
	if cfg.MemBandwidth > 0 {
		arb = newMemArbiter(n, cfg.MemBandwidth)
	}
	pool := make([]station, n)
	ring := make([]*unit, nu)
	for p := range ring {
		u := &unit{
			stations: make([]*station, 0, g),
			pool:     pool[p*g : (p+1)*g],
			inVal:    make([]isa.Word, l),
			inReady:  make([]bool, l),
			modified: make([]bool, l),
		}
		if grid != nil {
			u.grid = newU2Grid(grid, lay)
		}
		ring[p] = u
	}

	commit := make([]isa.Word, l)
	oldest, active := 0, 0 // ring position of the oldest unit; units in use
	pc := 0
	stalled := false // fetch waits for a control transfer to resolve
	var cycles, retired int64
	pos := func(k int) int { return (oldest + k) % nu } // k-th oldest unit

	// fill loads free units in age order with up to g sequential
	// instructions each, stopping after a control transfer or halt.
	fill := func() error {
		for active < nu && !stalled {
			if pc < 0 || pc >= len(prog) {
				if active == 0 {
					return fmt.Errorf("gatesim: fetch left the program at pc=%d", pc)
				}
				return nil
			}
			u := ring[pos(active)]
			for len(u.stations) < g && !stalled && pc >= 0 && pc < len(prog) {
				in := prog[pc]
				r1, r2, nr := in.ReadRegs()
				for i, r := range [2]uint8{r1, r2} {
					if i < nr && int(r) >= l {
						return fmt.Errorf("gatesim: %s reads r%d, machine has %d registers", in, r, l)
					}
				}
				if dst, ok := in.Writes(); ok && int(dst) >= l {
					return fmt.Errorf("gatesim: %s writes r%d, machine has %d registers", in, dst, l)
				}
				s := &u.pool[len(u.stations)]
				*s = station{inst: in, pc: pc}
				u.stations = append(u.stations, s)
				if in.IsHalt() || in.ChangesFlow() {
					stalled = true // no predictor: wait until it resolves
				} else {
					pc++
				}
			}
			if modOR != nil {
				u.loadModified(modOR, g, l)
			}
			active++
		}
		return nil
	}
	if err := fill(); err != nil {
		return nil, err
	}

	// Per-cycle buffers, indexed by unit (mods, vals, readys) or by
	// station slot p*g+j, station j of the unit at ring position p.
	mods := make([]bool, nu)
	vals := make([]isa.Word, nu)
	readys := make([]bool, nu)
	reqs := make([]bool, n)
	ages := make([]int, n)

	for cycles < cfg.MaxCycles {
		// Phase 1: the Figure 4 CSPPs, one per register, deliver every
		// non-oldest unit its incoming values ("each station, other than
		// the oldest, latches all of its incoming values"); the oldest
		// unit's file is the committed state.
		for r := 0; r < l; r++ {
			if inter != nil {
				for k := 0; k < nu; k++ {
					p := pos(k)
					mods[p], vals[p], readys[p] = ring[p].outgoing(r, k == 0, commit[r])
				}
				outV, outR := inter.forward(r, mods, vals, readys)
				for k := 1; k < nu; k++ {
					if u := ring[pos(k)]; len(u.stations) > 0 {
						u.inVal[r], u.inReady[r] = outV[pos(k)], outR[pos(k)]
					}
				}
			}
			u := ring[oldest]
			u.inVal[r], u.inReady[r] = commit[r], true
		}

		// Phase 2: inside each unit, the grid routes arguments from the
		// unit's incoming file and its earlier stations; a lone station
		// reads its incoming file directly.
		for _, u := range ring {
			if u.grid != nil {
				u.grid.route(u.inVal, u.inReady, u.stations)
				continue
			}
			for _, s := range u.stations {
				r1, r2, nr := s.inst.ReadRegs()
				s.argA, s.argB = u.inVal[r1], u.inVal[r2]
				s.argsOK = (nr < 1 || u.inReady[r1]) && (nr < 2 || u.inReady[r2])
			}
		}

		// Phase 3: the Figure 5 CSPPs order loads after every earlier
		// store and stores after every earlier memory access; with
		// arbitration, the fat-tree arbiter then grants this cycle's
		// eligible accesses, oldest first.
		storesDone, memOpsDone := seq.eval(ring, g, oldest)
		var grant []bool
		if arb != nil {
			for k := 0; k < nu; k++ {
				p := pos(k)
				for j := 0; j < g; j++ {
					slot := p*g + j
					ages[slot], reqs[slot] = k*g+j, false
					if j < len(ring[p].stations) {
						s := ring[p].stations[j]
						reqs[slot] = !s.done && !s.started && s.inst.IsMem() &&
							s.mayStart(storesDone[slot], memOpsDone[slot])
					}
				}
			}
			grant = arb.grants(reqs, ages)
		}

		// Execute, oldest first.
		for k := 0; k < nu; k++ {
			p := pos(k)
			for j, s := range ring[p].stations {
				slot := p*g + j
				if s.done || !s.mayStart(storesDone[slot], memOpsDone[slot]) ||
					arb != nil && s.inst.IsMem() && !s.started && !grant[slot] {
					continue
				}
				in := s.inst
				if !s.started {
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
					s.result = mem.Load(isa.EffAddr(in, s.argA)) & mask
					s.memDone = true
				case in.IsStore():
					mem.Store(isa.EffAddr(in, s.argA), s.argB&mask)
					s.memDone = true
				case in.IsBranch(), in.IsJump():
					// The link value is computed for branches too; only
					// jumps write it.
					s.nextPC = isa.NextPC(in, s.pc, s.argA, s.argB)
					s.result = isa.Word(s.pc+1) & mask
					if stalled {
						pc, stalled = s.nextPC, false
					}
				default:
					s.result = isa.ALUOp(in, s.argA, s.argB) & mask
				}
			}
		}
		cycles++

		// Phase 4: retire whole units from the oldest ("a cluster behaves
		// just like an execution station"). A grid unit latches its
		// outgoing columns — the final value of every register — into
		// the register file; a lone station writes its result.
		for active > 0 {
			u := ring[oldest]
			if !u.drained() {
				break
			}
			if u.grid != nil {
				u.grid.latchOutgoing(commit, u.stations)
			} else if d, ok := u.stations[0].inst.Writes(); ok {
				commit[d] = u.stations[0].result
			}
			retired += int64(len(u.stations))
			halt := u.stations[len(u.stations)-1].inst.IsHalt()
			u.stations = u.stations[:0]
			oldest = pos(1)
			active--
			if halt {
				return &Result{Regs: commit, Mem: mem, Cycles: cycles, Retired: retired}, nil
			}
		}

		// Phase 5: refill freed units.
		if err := fill(); err != nil {
			return nil, err
		}
	}
	return nil, ErrNoHalt
}

// drained reports whether every loaded station of the unit has finished.
func (u *unit) drained() bool {
	for _, s := range u.stations {
		if !s.done {
			return false
		}
	}
	return true
}
