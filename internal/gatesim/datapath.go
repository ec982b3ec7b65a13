package gatesim

import (
	"ultrascalar/internal/circuit"
	"ultrascalar/internal/isa"
)

// appendBits appends the low bits of v to in, least significant first.
func appendBits(in []bool, v uint64, bits int) []bool {
	for b := 0; b < bits; b++ {
		in = append(in, v>>uint(b)&1 == 1)
	}
	return in
}

// word reads a w-bit value from raw, least significant bit first.
func word(raw []bool, w int) isa.Word {
	var v isa.Word
	for b := 0; b < w; b++ {
		if raw[b] {
			v |= 1 << uint(b)
		}
	}
	return v
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
		in = appendBits(in, uint64(vals[i]), f.w)
		in = append(in, readys[i])
	}
	raw := f.regs[r].Eval(in)
	stride := f.w + 1
	for i := 0; i < f.n; i++ {
		f.outV[i] = word(raw[i*stride:], f.w)
		f.outR[i] = raw[i*stride+f.w]
	}
	return f.outV, f.outR
}

// sequencer holds the two Figure 5 instances over all n stations in
// slot order: inputs per station (segment, condition); outputs per
// station (all earlier stations met it).
type sequencer struct {
	storesDone, memOpsDone *circuit.Evaluator
	stores, memOps         []bool // the condition at each slot
	in                     []bool
}

func newSequencer(n int) *sequencer {
	c := circuit.Figure5CSPP(n, true)
	return &sequencer{
		storesDone: c.NewEvaluator(),
		memOpsDone: c.NewEvaluator(),
		stores:     make([]bool, n),
		memOps:     make([]bool, n),
		in:         make([]bool, 0, 2*n),
	}
}

// eval reports, per slot, whether every earlier station has finished
// its store (storesDone) and its memory access (memOpsDone). Station j
// of the unit at ring position p sits at slot p*g+j; free slots meet
// both conditions. The results are the instances' output buffers, valid
// until the next call.
func (q *sequencer) eval(ring []*unit, g, oldest int) (storesDone, memOpsDone []bool) {
	for p, u := range ring {
		for j := 0; j < g; j++ {
			st, mo := true, true
			if j < len(u.stations) {
				s := u.stations[j]
				st = !s.inst.IsStore() || s.memDone
				mo = !s.inst.IsMem() || s.memDone
			}
			q.stores[p*g+j], q.memOps[p*g+j] = st, mo
		}
	}
	return q.allEarlier(q.storesDone, q.stores, oldest*g), q.allEarlier(q.memOpsDone, q.memOps, oldest*g)
}

// allEarlier evaluates a Figure 5 instance: out[i] reports whether every
// station from the oldest up to (excluding) i met the condition. The
// oldest station's own output is forced true (it has no earlier
// stations), as in internal/cspp.AllEarlierTrue; forcing one entry of
// the output buffer is safe because every call rewrites all of it.
func (q *sequencer) allEarlier(seq *circuit.Evaluator, met []bool, oldest int) []bool {
	in := q.in[:0]
	for i, m := range met {
		in = append(in, i == oldest, m)
	}
	out := seq.Eval(in)
	out[oldest] = true
	return out
}

// loadModified evaluates the Figure 9 modified-bit OR netlist over the
// unit's freshly loaded batch — one bit per logical register, high when
// any station writes it — and latches the bits. The evaluator's output
// is shared by every unit and rewritten at the next refill, so the bits
// are copied.
func (u *unit) loadModified(modOR *circuit.Evaluator, nStations, l int) {
	dw := 1
	for 1<<dw < l {
		dw++
	}
	in := u.modIn[:0]
	for s := 0; s < nStations; s++ {
		var dest uint64
		var writes bool
		if s < len(u.stations) {
			if d, ok := u.stations[s].inst.Writes(); ok {
				dest, writes = uint64(d), true
			}
		}
		in = append(appendBits(in, dest, dw), writes)
	}
	u.modIn = in
	copy(u.modified, modOR.Eval(in))
}

// u2grid is one instance of the Ultrascalar II grid netlist of Figures
// 7-8: comparators search the register bindings and reduction columns
// deliver arguments. The hardware's grid keeps its values between
// cycles, and so does the instance, so each cycle re-evaluates only what
// the stations changed.
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
// means all ready); station s holds stations[s], absent past the end.
func (g *u2grid) eval(vals []isa.Word, readys []bool, stations []*station) []bool {
	lay := g.lay
	in := g.in[:0]
	for r := 0; r < lay.L; r++ {
		v := uint64(vals[r])
		if readys == nil || readys[r] {
			v |= 1 << uint(lay.W)
		}
		in = appendBits(in, v, lay.W+1)
	}
	for s := 0; s < lay.N; s++ {
		var dest, result, argA, argB uint64
		var writes bool
		if s < len(stations) {
			st := stations[s]
			if d, ok := st.inst.Writes(); ok {
				dest, writes = uint64(d), true
			}
			result = uint64(st.result)
			if st.done {
				result |= 1 << uint(lay.W) // ready bit
			}
			r1, r2, _ := st.inst.ReadRegs()
			argA, argB = uint64(r1), uint64(r2)
		}
		in = append(appendBits(in, dest, lay.DestW), writes)
		in = appendBits(in, result, lay.W+1)
		in = appendBits(in, argA, lay.DestW)
		in = appendBits(in, argB, lay.DestW)
	}
	return g.ev.Eval(in)
}

// route drives the grid with the stations' current state over the given
// incoming register file and captures each station's delivered
// arguments.
func (g *u2grid) route(vals []isa.Word, readys []bool, stations []*station) {
	raw := g.eval(vals, readys, stations)
	stride := g.lay.W + 1
	for s, st := range stations {
		a, b := raw[2*s*stride:], raw[(2*s+1)*stride:]
		_, _, nr := st.inst.ReadRegs()
		st.argA, st.argB = word(a, g.lay.W), word(b, g.lay.W)
		st.argsOK = (nr < 1 || a[g.lay.W]) && (nr < 2 || b[g.lay.W])
	}
}

// latchOutgoing re-evaluates the grid over the committed register file
// once the whole batch is done and latches its outgoing register columns
// (the final value of every logical register) into that file.
func (g *u2grid) latchOutgoing(commit []isa.Word, stations []*station) {
	raw := g.eval(commit, nil, stations)
	stride := g.lay.W + 1
	base := g.lay.N * 2 * stride
	for r := range commit {
		commit[r] = word(raw[base+r*stride:], g.lay.W)
	}
}

// memArbiter wraps one instance of the gate-level fat-tree arbiter
// netlist for per-cycle memory-access arbitration: per-level link
// capacities min(2^h, M), age tags giving the oldest requests priority.
type memArbiter struct {
	ev     *circuit.Evaluator
	layout circuit.FatTreeArbiterLayout
	in     []bool
}

func newMemArbiter(n, m int) *memArbiter {
	// Round the station count up to a power of two for the tree.
	size := 1
	levels := 0
	for size < n {
		size *= 2
		levels++
	}
	if levels == 0 {
		size, levels = 2, 1 // a degenerate 1-station tree still needs a root
	}
	caps := make([]int, levels)
	for h := 1; h <= levels; h++ {
		caps[h-1] = min(1<<h, m)
	}
	tagW := 1
	for 1<<tagW < size {
		tagW++
	}
	tagW++ // headroom so ages 0..size-1 are distinct tags
	c, lay := circuit.FatTreeArbiter(size, tagW, caps)
	return &memArbiter{ev: c.NewEvaluator(), layout: lay, in: make([]bool, 0, lay.N*(1+lay.TagW))}
}

// grants evaluates the arbiter netlist: reqs and ages are indexed by
// station slot; ages must be distinct for requesting slots. The result
// is valid until the next call.
func (a *memArbiter) grants(reqs []bool, ages []int) []bool {
	in := a.in[:0]
	for i := 0; i < a.layout.N; i++ {
		req, age := false, 0
		if i < len(reqs) {
			req, age = reqs[i], ages[i]
		}
		in = appendBits(append(in, req), uint64(age), a.layout.TagW)
	}
	return a.ev.Eval(in)[:len(reqs)]
}
