package circuit

import (
	"fmt"
	"math/bits"
)

// Incremental (event-driven) evaluation. A clocked datapath re-drives the
// same netlist every cycle with inputs that mostly repeat: in the paper's
// words, each cycle "newly computed results propagate through the
// network". An Evaluator keeps one netlist instance's gate values between
// calls and re-evaluates only the fan-out cone of the inputs that changed,
// stopping wherever a gate's value does not change. Gate IDs are a
// topological order, so a sweep of the dirty gates in ID order sees every
// gate after all of its operands.

// fanout is a netlist's consumer index in compressed sparse row form: the
// consumers of net id are to[start[id]:start[id+1]], in ascending ID
// order.
type fanout struct {
	start []int32
	to    []int32
}

func buildFanout(gates []gate) *fanout {
	n := len(gates)
	start := make([]int32, n+1)
	for _, g := range gates {
		for i := 0; i < g.kind.arity(); i++ {
			start[g.in[i]+1]++
		}
	}
	for id := 0; id < n; id++ {
		start[id+1] += start[id]
	}
	to := make([]int32, start[n])
	next := append([]int32(nil), start[:n]...)
	for id, g := range gates {
		for i := 0; i < g.kind.arity(); i++ {
			x := g.in[i]
			to[next[x]] = int32(id)
			next[x]++
		}
	}
	return &fanout{start: start, to: to}
}

// fanout returns the netlist's consumer index, built on first use and
// shared by every Evaluator of the netlist.
func (c *Circuit) fanout() *fanout {
	c.fanOnce.Do(func() { c.fan = buildFanout(c.gates) })
	return c.fan
}

// value computes a non-input gate's output from its operands' values.
// This is the netlist's one gate-evaluation rule; the full pass and the
// incremental sweep both use it.
func (g gate) value(vals []bool) bool {
	switch g.kind {
	case Const1:
		return true
	case Buf:
		return vals[g.in[0]]
	case Not:
		return !vals[g.in[0]]
	case And2:
		return vals[g.in[0]] && vals[g.in[1]]
	case Or2:
		return vals[g.in[0]] || vals[g.in[1]]
	case Xor2:
		return vals[g.in[0]] != vals[g.in[1]]
	case Mux2:
		if vals[g.in[0]] {
			return vals[g.in[2]]
		}
		return vals[g.in[1]]
	}
	return false // Const0
}

// Evaluator is one stateful instance of a netlist: it holds its own gate
// values, so successive calls cost only the gates whose inputs changed.
// Several Evaluators may share one netlist (hardware that replicates a
// circuit keeps one instance per replica); each is independent, and none
// may be used from two goroutines at once. The netlist must be complete
// before its first Evaluator is made.
type Evaluator struct {
	c      *Circuit
	vals   []bool
	out    []bool
	primed bool // vals hold a consistent evaluation

	fan   *fanout  // built at the first incremental call
	dirty []uint64 // bitmap of gates whose operands changed
}

// NewEvaluator returns a fresh evaluator over the netlist. Its first Eval
// runs a full pass.
func (c *Circuit) NewEvaluator() *Evaluator {
	return &Evaluator{
		c:    c,
		vals: make([]bool, len(c.gates)),
		out:  make([]bool, len(c.outputs)),
	}
}

// Eval computes the outputs for one input assignment; the length of in
// must equal the netlist's NumInputs. The returned slice belongs to the
// evaluator and is overwritten by its next call: a caller that keeps the
// result past that must copy it.
func (e *Evaluator) Eval(in []bool) []bool {
	c := e.c
	if len(in) != len(c.inputs) {
		panic(fmt.Sprintf("circuit: Eval got %d inputs, want %d", len(in), len(c.inputs)))
	}
	if len(e.vals) != len(c.gates) || len(e.out) != len(c.outputs) {
		panic("circuit: netlist grew after its Evaluator was made")
	}
	if e.primed {
		e.update(in)
	} else {
		e.full(in)
		e.primed = true
	}
	for i, id := range c.outputs {
		e.out[i] = e.vals[id]
	}
	return e.out
}

// full evaluates every gate in ID order.
func (e *Evaluator) full(in []bool) {
	vals := e.vals
	next := 0
	for id, g := range e.c.gates {
		if g.kind == Input {
			vals[id] = in[next]
			next++
			continue
		}
		vals[id] = g.value(vals)
	}
}

// update applies the changed inputs and sweeps their fan-out cones.
func (e *Evaluator) update(in []bool) {
	if e.fan == nil {
		e.fan = e.c.fanout()
		e.dirty = make([]uint64, (len(e.vals)+63)/64)
	}
	vals, dirty, fan := e.vals, e.dirty, e.fan
	// Dirty gates lie in words lo..hi of the bitmap.
	lo, hi := len(dirty), -1
	mark := func(id int) {
		cons := fan.to[fan.start[id]:fan.start[id+1]]
		if len(cons) == 0 {
			return
		}
		lo = min(lo, int(cons[0])>>6)
		hi = max(hi, int(cons[len(cons)-1])>>6)
		for _, f := range cons {
			dirty[f>>6] |= 1 << (f & 63)
		}
	}
	for i, id := range e.c.inputs {
		if in[i] != vals[id] {
			vals[id] = in[i]
			mark(id)
		}
	}
	gates := e.c.gates
	for wi := lo; wi <= hi; wi++ {
		// A gate's consumers have larger IDs, so marks made while
		// sweeping this word land on bits still ahead of the sweep.
		for dirty[wi] != 0 {
			b := bits.TrailingZeros64(dirty[wi])
			dirty[wi] &^= 1 << b
			id := wi<<6 | b
			if v := gates[id].value(vals); v != vals[id] {
				vals[id] = v
				mark(id)
			}
		}
	}
}
