package circuit

// Ultrascalar II register-datapath netlists (paper Figures 7 and 8).
//
// The grid routes, for each station's argument, the value of the nearest
// earlier writer of the requested register — searching through the L
// initial register rows and the result rows of all earlier stations. The
// linear variant (Figure 7) chains comparators and multiplexers down each
// column, giving Θ(n+L) gate delay; the mesh-of-trees variant (Figure 8)
// fans register numbers out through buffer trees and reduces each column
// with a (noncyclic) segmented reduction tree, giving Θ(log(n+L)) delay.

// Ultra2Layout records the input ordering of an Ultrascalar II grid
// netlist, so tests and tools can drive it.
//
// Inputs, in order:
//   - For each of L initial registers: W+1 nets (value bits then ready).
//   - For each of n stations: destW nets (destination register number),
//     one net (writes flag), W+1 nets (result value bits then ready),
//     then for each of the 2 arguments: destW nets (argument register
//     number).
//
// Outputs, in order:
//   - For each station, argument 0 then argument 1: W+1 nets.
//   - For each of L registers: W+1 nets (final outgoing value).
type Ultra2Layout struct {
	N, L, W int
	DestW   int // bits per register number: ceil(log2 L)
}

// NumInputs returns the total input count of the layout.
func (u Ultra2Layout) NumInputs() int {
	per := u.DestW + 1 + (u.W + 1) + 2*u.DestW
	return u.L*(u.W+1) + u.N*per
}

// NumOutputs returns the total output count of the layout.
func (u Ultra2Layout) NumOutputs() int {
	return u.N*2*(u.W+1) + u.L*(u.W+1)
}

func log2ceil(x int) int {
	b := 0
	for 1<<b < x {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// row is one register binding available to later columns: a register
// number, a validity flag (station rows only write when the instruction
// writes a register), and a value bus (value+ready).
type row struct {
	num    Bus
	writes int
	val    Bus
}

// Ultra2Grid builds the register datapath of an n-station, L-register,
// W-bit Ultrascalar II. tree selects the mesh-of-trees (Figure 8) versus
// the linear grid (Figure 7).
func Ultra2Grid(n, l, w int, tree bool) (*Circuit, Ultra2Layout) {
	c := newSized(ExpectedGatesUltra2Grid(n, l, w, tree))
	layout := Ultra2Layout{N: n, L: l, W: w, DestW: log2ceil(l)}
	dw := layout.DestW

	// Initial register file rows.
	rows := make([]row, 0, l+n)
	for r := 0; r < l; r++ {
		rows = append(rows, row{
			num:    c.ConstBus(uint64(r), dw),
			writes: c.Const(true),
			val:    c.NewInputBus(w + 1),
		})
	}

	var argOuts []Bus
	for s := 0; s < n; s++ {
		dest := c.NewInputBus(dw)
		writes := c.NewInput()
		result := c.NewInputBus(w + 1)
		for a := 0; a < 2; a++ {
			argNum := c.NewInputBus(dw)
			argOuts = append(argOuts, column(c, rows, argNum, w, tree))
		}
		rows = append(rows, row{num: dest, writes: writes, val: result})
	}

	// Outgoing register values: one column per logical register, searching
	// all rows (upper-right corner of Figure 7).
	var regOuts []Bus
	for r := 0; r < l; r++ {
		regOuts = append(regOuts, column(c, rows, c.ConstBus(uint64(r), dw), w, tree))
	}

	for _, b := range argOuts {
		c.OutputBus(b)
	}
	for _, b := range regOuts {
		c.OutputBus(b)
	}
	return c, layout
}

// column emits the search for the nearest matching row: compare the wanted
// register number against every row's number, then select the newest
// matching row's value. The linear form chains muxes from oldest to newest
// (Figure 7); the tree form is a balanced segmented reduction over rows
// with buffer-tree fan-out of the wanted number (Figure 8; "the tree
// circuits used here are more properly referred to as reduction circuits").
func column(c *Circuit, rows []row, want Bus, w int, tree bool) Bus {
	k := len(rows)
	if !tree {
		// Linear: newest matching row wins by muxing in row order.
		out := c.ConstBus(0, w+1)
		for _, r := range rows {
			match := c.And(c.Eq(r.num, want), r.writes)
			out = c.MuxBus(match, out, r.val)
		}
		return out
	}
	// Mesh-of-trees: fan out the wanted number to every comparator, then
	// reduce (match, value) pairs taking the newest match.
	wants := c.FanoutBus(want, k)
	type mv struct {
		match int
		val   Bus
	}
	items := make([]mv, k)
	for i, r := range rows {
		items[i] = mv{match: c.And(c.Eq(r.num, wants[i]), r.writes), val: r.val}
	}
	var reduce func(lo, hi int) mv
	reduce = func(lo, hi int) mv {
		if hi-lo == 1 {
			return items[lo]
		}
		mid := (lo + hi) / 2
		left := reduce(lo, mid)
		right := reduce(mid, hi)
		return mv{
			match: c.Or(left.match, right.match),
			val:   c.MuxBus(right.match, left.val, right.val),
		}
	}
	return reduce(0, k).val
}

// HybridModifiedBits builds the OR-gate extension of the paper's Figure 9:
// given each station's destination register number and writes flag, it
// produces one modified bit per logical register, so an Ultrascalar II
// cluster presents the Ultrascalar I interface. Inputs: per station, destW
// number bits then the writes flag. Outputs: L modified bits.
func HybridModifiedBits(n, l int, tree bool) *Circuit {
	c := newSized(ExpectedGatesHybridModified(n, l, tree))
	dw := log2ceil(l)
	dests := make([]Bus, n)
	writes := make([]int, n)
	for s := 0; s < n; s++ {
		dests[s] = c.NewInputBus(dw)
		writes[s] = c.NewInput()
	}
	for r := 0; r < l; r++ {
		matches := make([]int, n)
		for s := 0; s < n; s++ {
			matches[s] = c.And(c.Eq(dests[s], c.ConstBus(uint64(r), dw)), writes[s])
		}
		var out int
		if tree {
			out = c.OrN(matches)
		} else {
			// "either a series of OR gates or a tree of OR gates"
			out = matches[0]
			for s := 1; s < n; s++ {
				out = c.Or(out, matches[s])
			}
		}
		c.Output(out)
	}
	return c
}
