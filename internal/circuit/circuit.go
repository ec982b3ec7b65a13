// Package circuit is a gate-level netlist substrate. It exists so the
// repository can measure, rather than assume, the gate-delay claims of the
// paper: the generated netlists for the Ultrascalar datapaths are evaluated
// for functional correctness against the functional models in
// internal/cspp, and their measured depths reproduce the gate-delay rows of
// the paper's Figure 11 (Θ(log n) for the Ultrascalar I CSPP datapath,
// Θ(n+L) for the linear Ultrascalar II grid, Θ(log(n+L)) for the
// mesh-of-trees grid).
//
// Netlists are acyclic by construction: every gate's operands must already
// exist, so gate IDs are a topological order and evaluation is a single
// pass. The paper's *cyclic* segmented parallel prefix is built acyclically
// with the standard wrap construction (compute the noncyclic segmented
// prefix plus the whole-ring summary, then select), which computes the same
// function whenever at least one segment bit is high — and the datapath
// guarantees the oldest station's segment bit always is.
package circuit

import (
	"fmt"
	"sync"
)

// Kind identifies a gate type.
type Kind uint8

// Gate kinds. Mux2 selects In[1] when the selector In[0] is low and In[2]
// when it is high.
const (
	Input Kind = iota
	Const0
	Const1
	Buf
	Not
	And2
	Or2
	Xor2
	Mux2
	numKinds
)

var kindNames = [...]string{
	Input: "input", Const0: "const0", Const1: "const1", Buf: "buf",
	Not: "not", And2: "and2", Or2: "or2", Xor2: "xor2", Mux2: "mux2",
}

// String returns the gate kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// arity returns the number of inputs a gate kind consumes.
func (k Kind) arity() int {
	switch k {
	case Input, Const0, Const1:
		return 0
	case Buf, Not:
		return 1
	case And2, Or2, Xor2:
		return 2
	case Mux2:
		return 3
	}
	panic("circuit: bad kind")
}

// delay returns the unit gate delay contributed by a gate kind. Inputs and
// constants are free; every logic gate, including fan-out buffers, costs
// one unit, which is the accounting the paper uses ("gate delays").
func (k Kind) delay() int {
	switch k {
	case Input, Const0, Const1:
		return 0
	default:
		return 1
	}
}

// gate is one netlist node.
type gate struct {
	kind Kind
	in   [3]int32
}

// Circuit is an acyclic gate netlist under construction or analysis.
type Circuit struct {
	gates   []gate
	inputs  []int // ids of Input gates, in declaration order
	outputs []int // designated output nets, in declaration order

	fanOnce sync.Once
	fan     *fanout // consumer index for incremental evaluation
}

// New returns an empty circuit.
func New() *Circuit { return &Circuit{} }

// newSized returns an empty circuit with room for the given number of
// gates, for generators whose exact count is known in closed form.
func newSized(gates int) *Circuit { return &Circuit{gates: make([]gate, 0, max(gates, 0))} }

// NumGates returns the total number of nodes, including inputs and consts.
func (c *Circuit) NumGates() int { return len(c.gates) }

// NumInputs returns the number of declared inputs.
func (c *Circuit) NumInputs() int { return len(c.inputs) }

// NumOutputs returns the number of designated outputs.
func (c *Circuit) NumOutputs() int { return len(c.outputs) }

func (c *Circuit) add(k Kind, ins ...int) int {
	id := len(c.gates)
	g := gate{kind: k, in: [3]int32{-1, -1, -1}}
	if len(ins) != k.arity() {
		panic(fmt.Sprintf("circuit: %s needs %d inputs, got %d", k, k.arity(), len(ins)))
	}
	for i, x := range ins {
		if x < 0 || x >= id {
			panic(fmt.Sprintf("circuit: operand %d out of range for gate %d", x, id))
		}
		g.in[i] = int32(x)
	}
	c.gates = append(c.gates, g)
	return id
}

// NewInput declares a primary input and returns its net.
func (c *Circuit) NewInput() int {
	id := c.add(Input)
	c.inputs = append(c.inputs, id)
	return id
}

// Const returns a constant net.
func (c *Circuit) Const(v bool) int {
	if v {
		return c.add(Const1)
	}
	return c.add(Const0)
}

// Buf inserts a buffer (identity) gate; used for fan-out trees so that
// fan-out costs gate delay, as in the paper's mesh-of-trees analysis.
func (c *Circuit) Buf(x int) int { return c.add(Buf, x) }

// Not returns the complement of x.
func (c *Circuit) Not(x int) int { return c.add(Not, x) }

// And returns x AND y.
func (c *Circuit) And(x, y int) int { return c.add(And2, x, y) }

// Or returns x OR y.
func (c *Circuit) Or(x, y int) int { return c.add(Or2, x, y) }

// Xor returns x XOR y.
func (c *Circuit) Xor(x, y int) int { return c.add(Xor2, x, y) }

// Mux returns a 2:1 multiplexer: a when sel is low, b when sel is high.
func (c *Circuit) Mux(sel, a, b int) int { return c.add(Mux2, sel, a, b) }

// Output designates a net as a primary output and returns its output index.
func (c *Circuit) Output(x int) int {
	if x < 0 || x >= len(c.gates) {
		panic("circuit: output net out of range")
	}
	c.outputs = append(c.outputs, x)
	return len(c.outputs) - 1
}

// Eval computes the outputs for one input assignment with a full pass
// over a fresh Evaluator. The length of in must equal NumInputs. It is
// the reference the incremental evaluator is tested against; callers
// that evaluate a netlist repeatedly should hold an Evaluator instead.
func (c *Circuit) Eval(in []bool) []bool { return c.NewEvaluator().Eval(in) }

// Depth returns the critical-path length, in unit gate delays, from any
// input or constant to any designated output.
func (c *Circuit) Depth() int {
	depth := make([]int, len(c.gates))
	for id, g := range c.gates {
		d := 0
		for i := 0; i < g.kind.arity(); i++ {
			if dd := depth[g.in[i]]; dd > d {
				d = dd
			}
		}
		depth[id] = d + g.kind.delay()
	}
	max := 0
	for _, id := range c.outputs {
		if depth[id] > max {
			max = depth[id]
		}
	}
	return max
}

// Counts returns the number of gates of each kind.
func (c *Circuit) Counts() map[Kind]int {
	m := make(map[Kind]int)
	for _, g := range c.gates {
		m[g.kind]++
	}
	return m
}

// relative cell areas, in unit-transistor-pair weights, used only for
// relative comparisons between netlists; the vlsi package holds the
// λ-calibrated standard-cell library.
var cellWeight = [numKinds]float64{
	Input: 0, Const0: 0, Const1: 0,
	Buf: 2, Not: 1, And2: 3, Or2: 3, Xor2: 5, Mux2: 5,
}

// AreaWeight returns the total relative cell area of the netlist.
func (c *Circuit) AreaWeight() float64 {
	var a float64
	for _, g := range c.gates {
		a += cellWeight[g.kind]
	}
	return a
}

// Bus is an ordered group of nets representing a multi-bit value, least
// significant bit first.
type Bus []int

// NewInputBus declares w primary inputs as a bus.
func (c *Circuit) NewInputBus(w int) Bus {
	b := make(Bus, w)
	for i := range b {
		b[i] = c.NewInput()
	}
	return b
}

// ConstBus returns a bus of constants holding the low w bits of v.
func (c *Circuit) ConstBus(v uint64, w int) Bus {
	b := make(Bus, w)
	for i := range b {
		b[i] = c.Const(v>>uint(i)&1 == 1)
	}
	return b
}

// OutputBus designates every net of the bus as an output.
func (c *Circuit) OutputBus(b Bus) {
	for _, x := range b {
		c.Output(x)
	}
}

// MuxBus multiplexes two buses of equal width: a when sel is low.
func (c *Circuit) MuxBus(sel int, a, b Bus) Bus {
	if len(a) != len(b) {
		panic("circuit: MuxBus width mismatch")
	}
	out := make(Bus, len(a))
	for i := range a {
		out[i] = c.Mux(sel, a[i], b[i])
	}
	return out
}

// AndN returns the conjunction of the nets via a balanced tree of depth
// ceil(log2 n).
func (c *Circuit) AndN(xs []int) int { return c.reduce(xs, c.And, true) }

// OrN returns the disjunction of the nets via a balanced tree.
func (c *Circuit) OrN(xs []int) int { return c.reduce(xs, c.Or, false) }

func (c *Circuit) reduce(xs []int, op func(a, b int) int, identity bool) int {
	switch len(xs) {
	case 0:
		return c.Const(identity)
	case 1:
		return xs[0]
	}
	mid := len(xs) / 2
	return op(c.reduce(xs[:mid], op, identity), c.reduce(xs[mid:], op, identity))
}

// Eq returns the equality of two buses (XNOR per bit, AND tree), the
// comparator at each cross-point of the Ultrascalar II grid.
func (c *Circuit) Eq(a, b Bus) int {
	if len(a) != len(b) {
		panic("circuit: Eq width mismatch")
	}
	bits := make([]int, len(a))
	for i := range a {
		bits[i] = c.Not(c.Xor(a[i], b[i]))
	}
	return c.AndN(bits)
}

// Fanout returns k copies of the net through a balanced buffer tree, so
// that driving k consumers costs ceil(log2 k) gate delays — the fan-out
// accounting of the paper's mesh-of-trees construction (Section 4:
// "we fan them out through a tree of buffers").
func (c *Circuit) Fanout(x int, k int) []int {
	if k <= 0 {
		return nil
	}
	out := make([]int, k)
	c.fanoutInto(x, out)
	return out
}

// fanoutInto fills out with len(out) buffered copies of x: the first
// half (rounded up) through one buffer, the rest through a second.
func (c *Circuit) fanoutInto(x int, out []int) {
	switch len(out) {
	case 0:
		return
	case 1:
		out[0] = c.Buf(x)
		return
	}
	h := (len(out) + 1) / 2
	c.fanoutInto(c.Buf(x), out[:h])
	c.fanoutInto(c.Buf(x), out[h:])
}

// FanoutBus fans out every bit of a bus k ways; result[i] is the i-th copy.
func (c *Circuit) FanoutBus(b Bus, k int) []Bus {
	copies := make([]Bus, k)
	flat := make([]int, k*len(b))
	for i := range copies {
		copies[i] = flat[i*len(b) : (i+1)*len(b) : (i+1)*len(b)]
	}
	tmp := make([]int, k)
	for bit, x := range b {
		c.fanoutInto(x, tmp)
		for i, cp := range tmp {
			copies[i][bit] = cp
		}
	}
	return copies
}
