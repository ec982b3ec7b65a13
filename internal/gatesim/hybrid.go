package gatesim

import (
	"fmt"

	"ultrascalar/internal/circuit"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
)

// Gate-level hybrid Ultrascalar (paper Section 6, Figures 9-10): clusters
// of C stations, each an Ultrascalar II grid netlist extended with the
// Figure 9 modified-bit OR circuit, connected by the Ultrascalar I
// register CSPP trees at cluster granularity. "From the viewpoint of the
// Ultrascalar I part of the datapath, a single cluster behaves just like
// a subtree of [C] stations ... exactly one cluster is the oldest on any
// clock cycle, and the committed register file is kept in the oldest
// cluster."

// hybridCluster is one cluster of the ring.
type hybridCluster struct {
	valid    bool
	stations []*u2station // fixed capacity C; nil-padded after a flow stop
	count    int

	// incoming is the cluster's latched register file: per register, the
	// value and ready bit delivered by the inter-cluster CSPP.
	inVal   []isa.Word
	inReady []bool
	// modified holds the cluster's Figure 9 modified bits, computed once
	// per refill by evaluating the OR netlist over the loaded batch.
	modified []bool
	// grid is the cluster's own instance of the Ultrascalar II grid
	// netlist.
	grid *u2grid
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

// RunHybrid executes prog on the gate-level hybrid. Fetch follows the
// architectural path (stalling at control transfers until they resolve);
// clusters refill as units once all their instructions and all earlier
// instructions have finished.
func RunHybrid(prog []isa.Inst, mem *memory.Flat, cfg HybridConfig) (*Result, error) {
	if cfg.Window < 1 || cfg.Cluster < 1 || cfg.Window%cfg.Cluster != 0 {
		return nil, fmt.Errorf("gatesim: bad hybrid geometry n=%d C=%d", cfg.Window, cfg.Cluster)
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
	nC, C, l, w := cfg.Window/cfg.Cluster, cfg.Cluster, cfg.NumRegs, cfg.Width
	mask := isa.Word(1)<<uint(w) - 1

	grid, layout := circuit.Ultra2Grid(C, l, w, true)
	interCSPP := newRegisterCSPPs(nC, l, w)
	modOR := circuit.HybridModifiedBits(C, l, true).NewEvaluator()

	ring := make([]*hybridCluster, nC)
	for i := range ring {
		ring[i] = &hybridCluster{
			stations: make([]*u2station, 0, C),
			inVal:    make([]isa.Word, l),
			inReady:  make([]bool, l),
			modified: make([]bool, l),
			grid:     newU2Grid(grid, layout),
		}
	}
	commit := make([]isa.Word, l)
	oldest := 0
	active := 0
	pc := 0
	fetchStalled := false
	var cycles, retired int64

	posOf := func(k int) int { return (oldest + k) % nC }

	// fill loads empty clusters in age order with up to C sequential
	// instructions each, stopping at control transfers.
	fill := func() error {
		for active < nC && !fetchStalled {
			if pc < 0 || pc >= len(prog) {
				if active == 0 {
					return fmt.Errorf("gatesim: fetch ran out of program at pc=%d", pc)
				}
				return nil
			}
			cl := ring[posOf(active)]
			cl.valid = true
			cl.stations = cl.stations[:0]
			for len(cl.stations) < C && !fetchStalled {
				if pc < 0 || pc >= len(prog) {
					break
				}
				in := prog[pc]
				for _, r := range in.Reads() {
					if int(r) >= l {
						return fmt.Errorf("gatesim: %s reads r%d, machine has %d registers", in, r, l)
					}
				}
				if dst, ok := in.Writes(); ok && int(dst) >= l {
					return fmt.Errorf("gatesim: %s writes r%d, machine has %d registers", in, dst, l)
				}
				cl.stations = append(cl.stations, &u2station{inst: in, pc: pc})
				if in.IsHalt() || in.ChangesFlow() {
					fetchStalled = true
					break
				}
				pc++
			}
			cl.count = len(cl.stations)
			cl.loadModified(modOR, C, l)
			active++
		}
		return nil
	}
	if err := fill(); err != nil {
		return nil, err
	}

	// Reusable per-register CSPP input buffers.
	mods := make([]bool, nC)
	vals := make([]isa.Word, nC)
	readys := make([]bool, nC)

	// clusterOutgoing computes, for a cluster, its per-register outgoing
	// (modified, value, ready): modified bits from the Figure 9 OR
	// netlist; values/readiness from the grid's outgoing columns when
	// modified; the incoming file otherwise (or the committed file for
	// the oldest cluster).
	clusterReg := func(ci int, isOldest bool, r int) (bool, isa.Word, bool) {
		cl := ring[ci]
		if !cl.valid {
			if isOldest {
				return true, commit[r] & mask, true
			}
			return false, 0, false
		}
		if cl.modified[r] {
			// The Figure 9 OR netlist marked this register; the newest
			// writing station supplies the value and ready bit.
			var v isa.Word
			rdy := false
			for _, s := range cl.stations {
				if s == nil {
					continue
				}
				if dst, ok := s.inst.Writes(); ok && int(dst) == r {
					v = s.result & mask
					rdy = s.done
				}
			}
			return true, v, rdy
		}
		if isOldest {
			return true, commit[r] & mask, true
		}
		return false, 0, false
	}

	for cycles < cfg.MaxCycles {
		// Phase 1: inter-cluster CSPP per register; non-oldest clusters
		// latch incoming values; the oldest's file is the committed state.
		for r := 0; r < l; r++ {
			for k := 0; k < nC; k++ {
				p := posOf(k)
				mods[p], vals[p], readys[p] = clusterReg(p, k == 0, r)
			}
			outV, outR := interCSPP.forward(r, mods, vals, readys)
			for k := 1; k < nC; k++ {
				p := posOf(k)
				if ring[p].valid {
					ring[p].inVal[r] = outV[p]
					ring[p].inReady[r] = outR[p]
				}
			}
			old := ring[posOf(0)]
			old.inVal[r] = commit[r] & mask
			old.inReady[r] = true
		}

		// Phase 2: within each cluster, the grid netlist routes arguments
		// from the cluster's incoming file and earlier stations.
		for k := 0; k < nC; k++ {
			cl := ring[posOf(k)]
			if !cl.valid {
				continue
			}
			cl.grid.route(cl.inVal, cl.inReady, cl.stations, mask)
		}

		// Phase 3: memory serialization across the whole window (global
		// program order), then execution.
		storesDone, memDone := true, true
		for k := 0; k < nC; k++ {
			cl := ring[posOf(k)]
			if !cl.valid {
				continue
			}
			for _, s := range cl.stations {
				if s == nil {
					continue
				}
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
					s.result = isa.Word(s.pc+1) & mask
					if fetchStalled && !in.IsHalt() {
						pc = s.nextPC
						fetchStalled = false
					}
				default:
					s.result = isa.ALUOp(in, s.argsA, s.argsB) & mask
				}
			}
		}
		cycles++

		// Phase 4: retire whole clusters from the oldest position ("a
		// cluster behaves just like an execution station").
		for active > 0 {
			cl := ring[posOf(0)]
			if !cl.valid || !clusterDone(cl) {
				break
			}
			for _, s := range cl.stations {
				if s == nil {
					continue
				}
				if dst, ok := s.inst.Writes(); ok {
					commit[dst] = s.result & mask
				}
				retired++
				if s.inst.IsHalt() {
					return &Result{Regs: commit, Mem: mem, Cycles: cycles, Retired: retired}, nil
				}
			}
			cl.valid = false
			oldest = posOf(1)
			active--
		}

		// Phase 5: refill.
		if err := fill(); err != nil {
			return nil, err
		}
		if active == 0 {
			return nil, fmt.Errorf("gatesim: window drained without halt at pc=%d", pc)
		}
	}
	return nil, ErrNoHalt
}

func clusterDone(cl *hybridCluster) bool {
	for _, s := range cl.stations {
		if s != nil && !s.done {
			return false
		}
	}
	return true
}

// loadModified evaluates the Figure 9 OR netlist over the cluster's
// freshly loaded batch and latches the bits. The evaluator's output is
// shared by every cluster and rewritten at the next refill, so the bits
// are copied.
func (cl *hybridCluster) loadModified(modOR *circuit.Evaluator, nStations, l int) {
	insts := make([]isa.Inst, len(cl.stations))
	for i, s := range cl.stations {
		insts[i] = s.inst
	}
	copy(cl.modified, ClusterModifiedBits(modOR, nStations, l, insts))
}

// ClusterModifiedBits evaluates the Figure 9 modified-bit OR netlist for a
// batch of instructions: one bit per logical register, high when any
// station in the cluster writes it. The result is the evaluator's output
// buffer, valid until its next call. Exposed for the datapath tests.
func ClusterModifiedBits(ev *circuit.Evaluator, nStations, l int, insts []isa.Inst) []bool {
	dw := 1
	for 1<<dw < l {
		dw++
	}
	in := make([]bool, 0, nStations*(dw+1))
	for s := 0; s < nStations; s++ {
		var dest uint64
		var writes bool
		if s < len(insts) {
			if d, ok := insts[s].Writes(); ok {
				dest, writes = uint64(d), true
			}
		}
		for b := 0; b < dw; b++ {
			in = append(in, dest>>uint(b)&1 == 1)
		}
		in = append(in, writes)
	}
	return ev.Eval(in)
}
