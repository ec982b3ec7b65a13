package circuit

// Segmented parallel-prefix circuit generators. These are the netlist
// counterparts of internal/cspp: the same divide-and-conquer structure,
// emitted as gates, so depth can be measured and functional equivalence
// property-tested.

// ScanOp supplies the associative operator of a segmented scan as circuit
// fragments over value buses.
type ScanOp interface {
	// Width is the value bus width.
	Width() int
	// Combine emits op(a, b) where a is the accumulated (earlier) value.
	Combine(c *Circuit, a, b Bus) Bus
	// Identity emits the operator identity as a constant bus.
	Identity(c *Circuit) Bus
}

// PassScanOp is the register-forwarding operator a⊗b = a (paper Section 2).
// Combine emits no gates: selection is done entirely by the segment logic.
type PassScanOp struct{ W int }

// Width returns the register binding width.
func (p PassScanOp) Width() int { return p.W }

// Combine returns the earlier value unchanged.
func (PassScanOp) Combine(_ *Circuit, a, _ Bus) Bus { return a }

// Identity returns an all-zero bus; it is only observable when no segment
// bit is high, which the datapath precludes.
func (p PassScanOp) Identity(c *Circuit) Bus { return c.ConstBus(0, p.W) }

// AndScanOp is the 1-bit operator a⊗b = a∧b of the paper's Figure 5.
type AndScanOp struct{}

// Width is 1.
func (AndScanOp) Width() int { return 1 }

// Combine emits a single AND gate.
func (AndScanOp) Combine(c *Circuit, a, b Bus) Bus { return Bus{c.And(a[0], b[0])} }

// Identity is constant true.
func (AndScanOp) Identity(c *Circuit) Bus { return Bus{c.Const(true)} }

// ScanItem is one input position: a segment net and a value bus.
type ScanItem struct {
	Seg int
	Val Bus
}

// blockResult mirrors cspp.summary at circuit level.
type blockResult struct {
	incl    []Bus // inclusive segmented scan per position
	covered []int // per position: does a segment exist at <= position?
	val     Bus   // block value since last segment (or since start)
	anySeg  int   // does the block contain a segment?
}

// scanTree emits the balanced segmented-scan network.
func scanTree(c *Circuit, items []ScanItem, op ScanOp) blockResult {
	n := len(items)
	if n == 1 {
		it := items[0]
		incl := c.MuxBus(it.Seg, op.Combine(c, op.Identity(c), it.Val), it.Val)
		return blockResult{
			incl:    []Bus{incl},
			covered: []int{it.Seg},
			val:     incl,
			anySeg:  it.Seg,
		}
	}
	half := n / 2
	left := scanTree(c, items[:half], op)
	right := scanTree(c, items[half:], op)

	incl := make([]Bus, 0, n)
	covered := make([]int, 0, n)
	incl = append(incl, left.incl...)
	covered = append(covered, left.covered...)
	for i := 0; i < n-half; i++ {
		// Positions in the right block not covered by a right-block segment
		// continue accumulation from the left block's tail value.
		fixed := c.MuxBus(right.covered[i],
			op.Combine(c, left.val, right.incl[i]),
			right.incl[i])
		incl = append(incl, fixed)
		covered = append(covered, c.Or(right.covered[i], left.anySeg))
	}
	val := c.MuxBus(right.anySeg, op.Combine(c, left.val, right.val), right.val)
	return blockResult{
		incl:    incl,
		covered: covered,
		val:     val,
		anySeg:  c.Or(left.anySeg, right.anySeg),
	}
}

// BuildCSPPTree emits the cyclic segmented parallel-prefix network of the
// paper's Figure 4 (generalized over the operator): inputs are already-
// declared nets in items; the function returns the per-position exclusive
// cyclic outputs. Position i receives the scan over positions strictly
// before i in cyclic order, wrapping through the whole-ring summary — the
// acyclic equivalent of tying the tree top together, valid whenever at
// least one segment bit is high. Depth is Θ(log n).
func BuildCSPPTree(c *Circuit, items []ScanItem, op ScanOp) []Bus {
	n := len(items)
	if n == 0 {
		return nil
	}
	res := scanTree(c, items, op)
	out := make([]Bus, n)
	for i := 0; i < n; i++ {
		var ev Bus
		var ec int
		if i == 0 {
			ev, ec = op.Identity(c), c.Const(false)
		} else {
			ev, ec = res.incl[i-1], res.covered[i-1]
		}
		out[i] = c.MuxBus(ec, op.Combine(c, res.val, ev), ev)
	}
	return out
}

// BuildCSPPRing emits the linear multiplexer-ring implementation of the
// paper's Figure 1 (generalized over the operator): a chain of combine
// stages around the ring, made acyclic with the same wrap construction.
// Depth is Θ(n); the circuit computes the identical function to
// BuildCSPPTree. The pair reproduces the paper's linear-versus-logarithmic
// gate-delay comparison of Figures 1 and 4.
func BuildCSPPRing(c *Circuit, items []ScanItem, op ScanOp) []Bus {
	n := len(items)
	if n == 0 {
		return nil
	}
	// Linear inclusive scan.
	incl := make([]Bus, n)
	covered := make([]int, n)
	for i := 0; i < n; i++ {
		it := items[i]
		if i == 0 {
			incl[0] = c.MuxBus(it.Seg, op.Combine(c, op.Identity(c), it.Val), it.Val)
			covered[0] = it.Seg
			continue
		}
		acc := op.Combine(c, incl[i-1], it.Val)
		incl[i] = c.MuxBus(it.Seg, acc, it.Val)
		covered[i] = c.Or(covered[i-1], it.Seg)
	}
	total := incl[n-1]
	out := make([]Bus, n)
	for i := 0; i < n; i++ {
		var ev Bus
		var ec int
		if i == 0 {
			ev, ec = op.Identity(c), c.Const(false)
		} else {
			ev, ec = incl[i-1], covered[i-1]
		}
		out[i] = c.MuxBus(ec, op.Combine(c, total, ev), ev)
	}
	return out
}

// BuildCSPPMixed emits the Section 5 mixed strategy: balanced scan trees
// up to blocks of blockSize items, then a linear combine across block
// summaries ("one replaces the part of each tree near the root with a
// linear-time prefix circuit. This works well in practice because at some
// point the wire-lengths near the root of the tree become so long that
// the wire-delay is comparable to a gate delay"). Depth is
// Θ(log blockSize + n/blockSize); the function computed is identical to
// BuildCSPPTree and BuildCSPPRing.
func BuildCSPPMixed(c *Circuit, items []ScanItem, op ScanOp, blockSize int) []Bus {
	n := len(items)
	if n == 0 {
		return nil
	}
	if blockSize < 1 {
		blockSize = 1
	}
	// Per-block balanced trees.
	type blk struct {
		res blockResult
		lo  int
	}
	var blocks []blk
	for lo := 0; lo < n; lo += blockSize {
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		blocks = append(blocks, blk{res: scanTree(c, items[lo:hi], op), lo: lo})
	}
	// Linear combine across blocks: carry the (value, anySeg) summary.
	incl := make([]Bus, n)
	covered := make([]int, n)
	carryVal := op.Identity(c)
	carrySeg := c.Const(false)
	for _, b := range blocks {
		for i, bi := range b.res.incl {
			pos := b.lo + i
			fixed := c.MuxBus(b.res.covered[i], op.Combine(c, carryVal, bi), bi)
			incl[pos] = fixed
			covered[pos] = c.Or(b.res.covered[i], carrySeg)
		}
		carryVal = c.MuxBus(b.res.anySeg, op.Combine(c, carryVal, b.res.val), b.res.val)
		carrySeg = c.Or(carrySeg, b.res.anySeg)
	}
	total := incl[n-1]
	out := make([]Bus, n)
	for i := 0; i < n; i++ {
		var ev Bus
		var ec int
		if i == 0 {
			ev, ec = op.Identity(c), c.Const(false)
		} else {
			ev, ec = incl[i-1], covered[i-1]
		}
		out[i] = c.MuxBus(ec, op.Combine(c, total, ev), ev)
	}
	return out
}

// RegisterCSPP builds the complete datapath for one logical register of an
// n-station Ultrascalar I: per-station inputs (modified bit, then W value
// bits) and per-station outputs (the incoming register value seen by the
// station). tree selects Figure 4 (true) or the Figure 1 mux ring (false).
func RegisterCSPP(n, w int, tree bool) *Circuit {
	c := newSized(ExpectedGatesRegisterCSPP(n, w, tree))
	items := make([]ScanItem, n)
	for i := range items {
		items[i] = ScanItem{Seg: c.NewInput(), Val: c.NewInputBus(w)}
	}
	var outs []Bus
	if tree {
		outs = BuildCSPPTree(c, items, PassScanOp{W: w})
	} else {
		outs = BuildCSPPRing(c, items, PassScanOp{W: w})
	}
	for _, b := range outs {
		c.OutputBus(b)
	}
	return c
}

// Figure5CSPP builds the 1-bit condition-sequencing circuit of the paper's
// Figure 5: per-station inputs (segment bit, condition bit); per-station
// output: whether all earlier stations (from the segment raiser) met the
// condition.
func Figure5CSPP(n int, tree bool) *Circuit {
	c := newSized(ExpectedGatesFigure5(n, tree))
	items := make([]ScanItem, n)
	for i := range items {
		items[i] = ScanItem{Seg: c.NewInput(), Val: Bus{c.NewInput()}}
	}
	var outs []Bus
	if tree {
		outs = BuildCSPPTree(c, items, AndScanOp{})
	} else {
		outs = BuildCSPPRing(c, items, AndScanOp{})
	}
	for _, b := range outs {
		c.OutputBus(b)
	}
	return c
}
