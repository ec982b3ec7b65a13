package circuit

// Netlist design-rule checks. The generators in this package are trusted
// to emit well-formed netlists because add() enforces topological gate
// IDs — but that trust is structural, not semantic. Check re-derives the
// well-formedness properties from the gate array itself (so hand-built
// or mutated netlists are caught) and layers on the semantic rules a
// silicon flow would apply: no combinational cycles, no floating primary
// inputs, bounded fan-out, and — the strongest rule — gate counts that
// match the closed-form recurrences of the paper's complexity analysis
// exactly. A netlist that passes Check is the circuit the analysis
// reasons about, not merely one that happens to simulate correctly.

import "fmt"

// Violation is one design-rule failure.
type Violation struct {
	Rule   string // "operand", "output", "cycle", "floating-input", "fanout", "dead", "gate-count"
	Detail string
}

// String formats the violation as rule: detail.
func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// CheckOptions configures the optional design rules. The structural
// rules (operand discipline, acyclicity, floating inputs) always run; a
// zero value skips each optional rule.
type CheckOptions struct {
	// MaxFanout, when positive, bounds the number of consumers of any
	// net. The bound is family-specific: the linear Ultrascalar II grid
	// genuinely broadcasts each result row to Θ(n+L) columns, while a
	// CSPP's worst net drives Θ(n) wrap multiplexers.
	MaxFanout int
	// MaxDead, when positive, bounds the absolute number of logic gates
	// from which no primary output is reachable. The generators leave a
	// little dead logic by design — a scan tree strands its root-summary
	// gates at every merge level, like the trimmed cells of a synthesis
	// run — so the bound is small, not zero.
	MaxDead int
	// MaxDeadFraction, when positive, bounds the dead logic as a
	// fraction instead; the right form for the grids, whose dead share
	// stays constant while the absolute count grows with the netlist.
	MaxDeadFraction float64
	// ExpectedGates, when positive, requires NumGates to equal the
	// closed-form count from the construction recurrence.
	ExpectedGates int
}

// CheckResult reports the measured netlist statistics and any rule
// violations.
type CheckResult struct {
	Gates, Inputs, Outputs int
	MaxFanout              int
	DeadGates              int // logic gates with no path to an output
	Violations             []Violation
}

// OK reports whether every design rule passed.
func (r CheckResult) OK() bool { return len(r.Violations) == 0 }

// Check runs the design rules against the netlist.
func (c *Circuit) Check(opt CheckOptions) CheckResult {
	n := len(c.gates)
	res := CheckResult{Gates: n, Inputs: len(c.inputs), Outputs: len(c.outputs)}
	violate := func(rule, format string, args ...any) {
		res.Violations = append(res.Violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}

	// Operand discipline: used slots reference existing gates, unused
	// slots stay unset. Range errors are reported here and the offending
	// edges skipped below, so the remaining rules still run.
	for id, g := range c.gates {
		ar := g.kind.arity()
		for i := 0; i < 3; i++ {
			x := int(g.in[i])
			switch {
			case i < ar && (x < 0 || x >= n):
				violate("operand", "gate %d (%s): operand %d = %d is outside the netlist", id, g.kind, i, x)
			case i >= ar && x != -1:
				violate("operand", "gate %d (%s): spurious operand in unused slot %d", id, g.kind, i)
			}
		}
	}
	for i, id := range c.outputs {
		if id < 0 || id >= n {
			violate("output", "output %d references net %d, outside the netlist", i, id)
		}
	}

	// Combinational cycles. add() makes IDs a topological order, so the
	// check is a single backward-edge scan — but on a mutated netlist a
	// forward operand is exactly a wire that closes a loop through the
	// evaluation order, so it is reported as a cycle.
	for id, g := range c.gates {
		for i := 0; i < g.kind.arity(); i++ {
			x := int(g.in[i])
			if x >= id && x < n {
				violate("cycle", "gate %d (%s) depends on gate %d, closing a combinational loop", id, g.kind, x)
			}
		}
	}

	// Fan-out: consumers per net, counting each operand use.
	fanout := make([]int, n)
	for _, g := range c.gates {
		for i := 0; i < g.kind.arity(); i++ {
			if x := int(g.in[i]); 0 <= x && x < n {
				fanout[x]++
			}
		}
	}
	for id, f := range fanout {
		if f > res.MaxFanout {
			res.MaxFanout = f
		}
		if opt.MaxFanout > 0 && f > opt.MaxFanout {
			violate("fanout", "net %d (%s) drives %d consumers, bound is %d", id, c.gates[id].kind, f, opt.MaxFanout)
		}
	}

	// Floating primary inputs: an input no gate reads and no output
	// designates is a disconnected port.
	isOutput := make(map[int]bool, len(c.outputs))
	for _, id := range c.outputs {
		isOutput[id] = true
	}
	for _, id := range c.inputs {
		if fanout[id] == 0 && !isOutput[id] {
			violate("floating-input", "input net %d has no consumers", id)
		}
	}

	// Dead logic: gates with no path to any primary output, found by
	// reverse reachability. Primary inputs are excluded (they are ports,
	// covered above); constants and logic gates count.
	live := make([]bool, n)
	for _, id := range c.outputs {
		if 0 <= id && id < n {
			live[id] = true
		}
	}
	for id := n - 1; id >= 0; id-- {
		if !live[id] {
			continue
		}
		g := c.gates[id]
		for i := 0; i < g.kind.arity(); i++ {
			if x := int(g.in[i]); 0 <= x && x < id {
				live[x] = true
			}
		}
	}
	logic := 0
	for id, g := range c.gates {
		if g.kind == Input {
			continue
		}
		logic++
		if !live[id] {
			res.DeadGates++
		}
	}
	if opt.MaxDead > 0 && res.DeadGates > opt.MaxDead {
		violate("dead", "%d logic gates are unreachable from outputs, bound is %d",
			res.DeadGates, opt.MaxDead)
	}
	if opt.MaxDeadFraction > 0 && logic > 0 {
		if frac := float64(res.DeadGates) / float64(logic); frac > opt.MaxDeadFraction {
			violate("dead", "%d of %d logic gates are unreachable from outputs (%.1f%%, bound %.1f%%)",
				res.DeadGates, logic, 100*frac, 100*opt.MaxDeadFraction)
		}
	}

	// Gate-count cross-check against the construction recurrence.
	if opt.ExpectedGates > 0 && n != opt.ExpectedGates {
		violate("gate-count", "netlist has %d gates, construction recurrence gives %d", n, opt.ExpectedGates)
	}
	return res
}

// Closed-form gate counts. Each function mirrors its generator's
// emission order term by term, so the counts are exact, not asymptotic;
// TestDRCExpectedCounts holds them equal to the built netlists. Together
// with Figure 11's measured depths they pin both coordinates of the
// paper's complexity claims: depth (time) and gate count (area).

// countScanTree is scanTree's gate count for n items under an operator
// emitting combineGates per Combine and identityGates per Identity, with
// value width w.
func countScanTree(n, w, combineGates, identityGates int) int {
	if n < 1 {
		return 0
	}
	if n == 1 {
		// Identity + Combine(identity, val) + MuxBus.
		return identityGates + combineGates + w
	}
	half := n / 2
	merge := (n-half)*(combineGates+w+1) + // per right position: Combine + MuxBus + covered Or
		combineGates + w + // block val: Combine + MuxBus
		1 // anySeg Or
	return countScanTree(half, w, combineGates, identityGates) +
		countScanTree(n-half, w, combineGates, identityGates) +
		merge
}

// countWrap is the shared wrap stage of BuildCSPPTree/Ring/Mixed: one
// Identity + Const(false) for position 0, then Combine + MuxBus per
// position.
func countWrap(n, w, combineGates, identityGates int) int {
	return identityGates + 1 + n*(combineGates+w)
}

// ExpectedGatesRegisterCSPP returns RegisterCSPP's exact gate count:
// n·(1+w) inputs plus the PassScanOp scan network (Combine emits no
// gates, Identity emits w constants).
func ExpectedGatesRegisterCSPP(n, w int, tree bool) int {
	inputs := n * (1 + w)
	if tree {
		return inputs + countScanTree(n, w, 0, w) + countWrap(n, w, 0, w)
	}
	// BuildCSPPRing: position 0 emits Identity + MuxBus, each later
	// position MuxBus + covered Or; then the wrap stage.
	scan := (w + w) + (n-1)*(w+1)
	return inputs + scan + countWrap(n, w, 0, w)
}

// ExpectedGatesFigure5 returns Figure5CSPP's exact gate count: 2n inputs
// plus the AndScanOp network (Combine is one AND, Identity one constant,
// width 1).
func ExpectedGatesFigure5(n int, tree bool) int {
	inputs := 2 * n
	if tree {
		return inputs + countScanTree(n, 1, 1, 1) + countWrap(n, 1, 1, 1)
	}
	scan := (1 + 1 + 1) + (n-1)*(1+1+1)
	return inputs + scan + countWrap(n, 1, 1, 1)
}

// countEq is Eq's gate count for buses of width dw: XNOR per bit plus a
// balanced AND reduction.
func countEq(dw int) int { return 2*dw + (dw - 1) }

// countFanout is Fanout's buffer count for k copies:
// F(1) = 1, F(k) = F(⌈k/2⌉) + F(⌊k/2⌋) + 2.
func countFanout(k int) int {
	if k <= 0 {
		return 0
	}
	if k == 1 {
		return 1
	}
	return countFanout((k+1)/2) + countFanout(k/2) + 2
}

// countReduce is column's reduction-tree count over k rows, each merge
// emitting one OR and a (w+1)-wide MuxBus; the recursion splits at
// mid = ⌊k/2⌋.
func countReduce(k, w int) int {
	if k <= 1 {
		return 0
	}
	mid := k / 2
	return countReduce(mid, w) + countReduce(k-mid, w) + 1 + (w + 1)
}

// countColumn is column's gate count over k rows for value width w and
// register-number width dw.
func countColumn(k, w, dw int, tree bool) int {
	if !tree {
		// ConstBus(0, w+1), then per row Eq + And + MuxBus.
		return (w + 1) + k*(countEq(dw)+1+(w+1))
	}
	// FanoutBus of the wanted number, per row Eq + And, then the
	// segmented reduction.
	return dw*countFanout(k) + k*(countEq(dw)+1) + countReduce(k, w)
}

// ExpectedGatesUltra2Grid returns Ultra2Grid's exact gate count,
// accumulated in the generator's emission order: initial register rows,
// then per station two argument columns over the rows seen so far, then
// one outgoing column per logical register over all rows.
func ExpectedGatesUltra2Grid(n, l, w int, tree bool) int {
	dw := log2ceil(l)
	total := l * (dw + 1 + (w + 1)) // ConstBus(r) + Const(true) + value inputs
	for s := 0; s < n; s++ {
		total += dw + 1 + (w + 1)                         // dest, writes, result inputs
		total += 2 * (dw + countColumn(l+s, w, dw, tree)) // argNum inputs + column
	}
	total += l * (dw + countColumn(l+n, w, dw, tree)) // ConstBus(r) + column
	return total
}

// ExpectedGatesHybridModified returns HybridModifiedBits' exact gate
// count. The OR series and the OR tree emit the same n−1 gates; only
// their depth differs.
func ExpectedGatesHybridModified(n, l int, _ bool) int {
	dw := log2ceil(l)
	inputs := n * (dw + 1)
	perReg := n*(dw+countEq(dw)+1) + (n - 1) // ConstBus(r) + Eq + And per station, then the OR reduction
	return inputs + l*perReg
}

// DRCReport is the result of checking one generated netlist family
// member against its family's design rules.
type DRCReport struct {
	Name    string
	N, L, W int
	Result  CheckResult
}

// OK reports whether the member passed.
func (r DRCReport) OK() bool { return r.Result.OK() }

// csppFanoutBound is the CSPP fan-out budget: the wrap summary drives
// one multiplexer per station (n), and a value or segment bit threads
// through at most a few multiplexers per bit of width beyond that (the
// pass operator forwards the same net up the tree as the block value).
func csppFanoutBound(n, w int) int { return n + 3*w + 2 }

// csppDeadBound is the CSPP dead-logic budget: every merge level of the
// scan tree strands one block summary (w value muxes, a covered OR and
// the anySeg OR) that the wrap stage never consumes.
func csppDeadBound(n, w int) int { return (w+2)*log2ceil(n) + 1 }

// DRCRegisterCSPP builds and checks the Ultrascalar I register datapath.
func DRCRegisterCSPP(n, w int, tree bool) DRCReport {
	name := "cspp-ring"
	if tree {
		name = "cspp-tree"
	}
	c := RegisterCSPP(n, w, tree)
	return DRCReport{Name: name, N: n, W: w, Result: c.Check(CheckOptions{
		MaxFanout:     csppFanoutBound(n, w),
		MaxDead:       csppDeadBound(n, w),
		ExpectedGates: ExpectedGatesRegisterCSPP(n, w, tree),
	})}
}

// DRCFigure5 builds and checks the Figure 5 condition-sequencing CSPP.
func DRCFigure5(n int, tree bool) DRCReport {
	name := "figure5-ring"
	if tree {
		name = "figure5-tree"
	}
	c := Figure5CSPP(n, tree)
	return DRCReport{Name: name, N: n, W: 1, Result: c.Check(CheckOptions{
		MaxFanout:     csppFanoutBound(n, 1),
		MaxDead:       csppDeadBound(n, 1),
		ExpectedGates: ExpectedGatesFigure5(n, tree),
	})}
}

// DRCUltra2Grid builds and checks the Ultrascalar II register datapath.
// Both variants genuinely broadcast every result row to every later
// column — 2(n+L) consumers in the worst case — since only the wanted
// register numbers go through fan-out trees; the +4 covers the row's
// writes flag feeding the same columns' match gates.
func DRCUltra2Grid(n, l, w int, tree bool) DRCReport {
	name := "ultra2-linear"
	if tree {
		name = "ultra2-tree"
	}
	c, _ := Ultra2Grid(n, l, w, tree)
	return DRCReport{Name: name, N: n, L: l, W: w, Result: c.Check(CheckOptions{
		MaxFanout: 2*(n+l) + 4,
		// Each tree column strands its reduction root's match bit; the
		// share stays well under 5% at every size.
		MaxDeadFraction: 0.05,
		ExpectedGates:   ExpectedGatesUltra2Grid(n, l, w, tree),
	})}
}

// DRCHybridModified builds and checks the hybrid's modified-bit OR
// plane. Each station's writes flag and destination bits feed one match
// per logical register.
func DRCHybridModified(n, l int, tree bool) DRCReport {
	name := "hybrid-or-series"
	if tree {
		name = "hybrid-or-tree"
	}
	c := HybridModifiedBits(n, l, tree)
	return DRCReport{Name: name, N: n, L: l, W: 1, Result: c.Check(CheckOptions{
		MaxFanout:     l + 2,
		MaxDead:       1, // the OR plane consumes everything it builds
		ExpectedGates: ExpectedGatesHybridModified(n, l, tree),
	})}
}

// DRCSuite checks every generated family at each station count, with the
// paper's empirical register file (L = 16 visible here for tractable
// grids, W = 8 data bits).
func DRCSuite(sizes []int) []DRCReport {
	const l, w = 16, 8
	var out []DRCReport
	for _, n := range sizes {
		for _, tree := range []bool{false, true} {
			out = append(out,
				DRCRegisterCSPP(n, w, tree),
				DRCFigure5(n, tree),
				DRCUltra2Grid(n, l, w, tree),
				DRCHybridModified(n, l, tree),
			)
		}
	}
	return out
}
