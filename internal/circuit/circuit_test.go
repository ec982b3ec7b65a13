package circuit

import (
	"math/rand"
	"testing"

	"ultrascalar/internal/cspp"
)

func TestPrimitiveGates(t *testing.T) {
	c := New()
	a, b := c.NewInput(), c.NewInput()
	sel := c.NewInput()
	c.Output(c.And(a, b))
	c.Output(c.Or(a, b))
	c.Output(c.Xor(a, b))
	c.Output(c.Not(a))
	c.Output(c.Buf(a))
	c.Output(c.Mux(sel, a, b))
	c.Output(c.Const(true))
	c.Output(c.Const(false))
	for _, tc := range []struct {
		in   []bool
		want []bool
	}{
		{[]bool{false, false, false}, []bool{false, false, false, true, false, false, true, false}},
		{[]bool{true, false, false}, []bool{false, true, true, false, true, true, true, false}},
		{[]bool{true, true, true}, []bool{true, true, false, false, true, true, true, false}},
		{[]bool{false, true, true}, []bool{false, true, true, true, false, true, true, false}},
	} {
		got := c.Eval(tc.in)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("in %v out %d: got %v want %v", tc.in, i, got[i], tc.want[i])
			}
		}
	}
	if c.NumInputs() != 3 || c.NumOutputs() != 8 {
		t.Errorf("inputs %d outputs %d", c.NumInputs(), c.NumOutputs())
	}
	if c.NumGates() == 0 || c.AreaWeight() <= 0 {
		t.Error("gate count / area should be positive")
	}
}

func TestConstructionPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("forward ref", func() {
		c := New()
		c.And(0, 1) // no gates exist yet
	})
	mustPanic("bad output", func() {
		c := New()
		c.Output(5)
	})
	mustPanic("eval arity", func() {
		c := New()
		c.NewInput()
		c.Eval(nil)
	})
	mustPanic("muxbus width", func() {
		c := New()
		c.MuxBus(c.Const(false), c.ConstBus(0, 2), c.ConstBus(0, 3))
	})
	mustPanic("eq width", func() {
		c := New()
		c.Eq(c.ConstBus(0, 2), c.ConstBus(0, 3))
	})
}

func TestReduceTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 7, 16, 33} {
		c := New()
		xs := make([]int, n)
		for i := range xs {
			xs[i] = c.NewInput()
		}
		c.Output(c.AndN(xs))
		c.Output(c.OrN(xs))
		for trial := 0; trial < 20; trial++ {
			in := make([]bool, n)
			wantAnd, wantOr := true, false
			for i := range in {
				in[i] = rng.Intn(2) == 0
				wantAnd = wantAnd && in[i]
				wantOr = wantOr || in[i]
			}
			got := c.Eval(in)
			if got[0] != wantAnd || got[1] != wantOr {
				t.Fatalf("n=%d in=%v got=%v want=[%v %v]", n, in, got, wantAnd, wantOr)
			}
		}
	}
}

func TestEqComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := 6
	c := New()
	a, b := c.NewInputBus(w), c.NewInputBus(w)
	c.Output(c.Eq(a, b))
	for trial := 0; trial < 100; trial++ {
		x, y := rng.Uint64()&63, rng.Uint64()&63
		if trial%3 == 0 {
			y = x
		}
		in := make([]bool, 0, 2*w)
		for i := 0; i < w; i++ {
			in = append(in, x>>uint(i)&1 == 1)
		}
		for i := 0; i < w; i++ {
			in = append(in, y>>uint(i)&1 == 1)
		}
		if got := c.Eval(in)[0]; got != (x == y) {
			t.Fatalf("Eq(%d,%d) = %v", x, y, got)
		}
	}
	// Comparator depth is logarithmic in width: xnor (2) + AND tree.
	if d := c.Depth(); d > 2+log2ceil(w)+1 {
		t.Errorf("Eq depth %d too deep for width %d", d, w)
	}
}

func TestFanout(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 31} {
		c := New()
		x := c.NewInput()
		for _, cp := range c.Fanout(x, k) {
			c.Output(cp)
		}
		if c.NumOutputs() != k {
			t.Fatalf("Fanout(%d) produced %d copies", k, c.NumOutputs())
		}
		for _, v := range []bool{false, true} {
			for i, got := range c.Eval([]bool{v}) {
				if got != v {
					t.Errorf("k=%d copy %d = %v, want %v", k, i, got, v)
				}
			}
		}
		// Depth of a balanced buffer tree: about ceil(log2 k) + 1.
		if d := c.Depth(); d > log2ceil(k)+2 {
			t.Errorf("Fanout(%d) depth %d too deep", k, d)
		}
	}
	if got := New().Fanout(0, 0); got != nil {
		t.Error("Fanout k=0 should be nil")
	}
}

// evalRegisterCSPP drives a RegisterCSPP circuit with station states and
// decodes the per-station W-bit outputs.
func evalRegisterCSPP(c *Circuit, n, w int, mod []bool, vals []uint64) []uint64 {
	in := make([]bool, 0, n*(1+w))
	for i := 0; i < n; i++ {
		in = append(in, mod[i])
		for b := 0; b < w; b++ {
			in = append(in, vals[i]>>uint(b)&1 == 1)
		}
	}
	raw := c.Eval(in)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		for b := 0; b < w; b++ {
			if raw[i*w+b] {
				out[i] |= 1 << uint(b)
			}
		}
	}
	return out
}

// TestRegisterCSPPMatchesFunctional checks both the Figure 1 ring netlist
// and the Figure 4 tree netlist against the functional CSPP model for
// random station states.
func TestRegisterCSPPMatchesFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 5, 8, 16} {
		w := 6
		ring := RegisterCSPP(n, w, false)
		tree := RegisterCSPP(n, w, true)
		for trial := 0; trial < 40; trial++ {
			mod := make([]bool, n)
			vals := make([]uint64, n)
			oldest := rng.Intn(n)
			for i := range mod {
				mod[i] = rng.Intn(3) == 0
				vals[i] = rng.Uint64() & 63
			}
			mod[oldest] = true // datapath invariant: oldest always modifies

			// Functional reference via cspp with value payloads.
			items := make([]cspp.Elem[uint64], n)
			for i := range items {
				items[i] = cspp.Elem[uint64]{Seg: mod[i], Val: vals[i]}
			}
			want := cspp.RingExclusive[uint64](items, passU64{})

			for name, c := range map[string]*Circuit{"ring": ring, "tree": tree} {
				got := evalRegisterCSPP(c, n, w, mod, vals)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d trial=%d station %d: got %d want %d (mod=%v vals=%v)",
							name, n, trial, i, got[i], want[i], mod, vals)
					}
				}
			}
		}
	}
}

type passU64 struct{}

func (passU64) Combine(a, _ uint64) uint64 { return a }
func (passU64) Identity() uint64           { return 0 }

// TestFigure5CircuitMatchesFunctional checks the 1-bit AND CSPP netlists
// against the functional ring for random conditions.
func TestFigure5CircuitMatchesFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 4, 8, 13} {
		ring := Figure5CSPP(n, false)
		tree := Figure5CSPP(n, true)
		for trial := 0; trial < 40; trial++ {
			segs := make([]bool, n)
			conds := make([]bool, n)
			segs[rng.Intn(n)] = true
			for i := range conds {
				conds[i] = rng.Intn(2) == 0
				if rng.Intn(4) == 0 {
					segs[i] = true
				}
			}
			items := make([]cspp.Elem[bool], n)
			in := make([]bool, 0, 2*n)
			for i := 0; i < n; i++ {
				items[i] = cspp.Elem[bool]{Seg: segs[i], Val: conds[i]}
				in = append(in, segs[i], conds[i])
			}
			want := cspp.RingExclusive[bool](items, cspp.AndOp{})
			for name, c := range map[string]*Circuit{"ring": ring, "tree": tree} {
				got := c.Eval(in)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d station %d: got %v want %v (segs=%v conds=%v)",
							name, n, i, got[i], want[i], segs, conds)
					}
				}
			}
		}
	}
}

// TestMixedCSPPMatchesAndSitsBetween: the Section 5 mixed strategy
// computes the identical function with depth between the tree and the
// ring.
func TestMixedCSPPMatchesAndSitsBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n, w := 32, 4
	build := func(f func(c *Circuit, items []ScanItem) []Bus) *Circuit {
		c := New()
		items := make([]ScanItem, n)
		for i := range items {
			items[i] = ScanItem{Seg: c.NewInput(), Val: c.NewInputBus(w)}
		}
		for _, o := range f(c, items) {
			c.OutputBus(o)
		}
		return c
	}
	tree := build(func(c *Circuit, it []ScanItem) []Bus {
		return BuildCSPPTree(c, it, PassScanOp{W: w})
	})
	ring := build(func(c *Circuit, it []ScanItem) []Bus {
		return BuildCSPPRing(c, it, PassScanOp{W: w})
	})
	mixed := build(func(c *Circuit, it []ScanItem) []Bus {
		return BuildCSPPMixed(c, it, PassScanOp{W: w}, 8)
	})
	for trial := 0; trial < 50; trial++ {
		in := make([]bool, 0, n*(1+w))
		seg := rng.Intn(n)
		for i := 0; i < n; i++ {
			in = append(in, i == seg || rng.Intn(4) == 0)
			for b := 0; b < w; b++ {
				in = append(in, rng.Intn(2) == 0)
			}
		}
		a, b, m := tree.Eval(in), ring.Eval(in), mixed.Eval(in)
		for i := range a {
			if a[i] != m[i] || b[i] != m[i] {
				t.Fatalf("trial %d out %d: tree %v ring %v mixed %v", trial, i, a[i], b[i], m[i])
			}
		}
	}
	dt, dr, dm := tree.Depth(), ring.Depth(), mixed.Depth()
	if !(dt <= dm && dm <= dr) {
		t.Errorf("depth ordering tree %d <= mixed %d <= ring %d violated", dt, dm, dr)
	}
	// Degenerate block sizes behave.
	one := build(func(c *Circuit, it []ScanItem) []Bus {
		return BuildCSPPMixed(c, it, PassScanOp{W: w}, 0)
	})
	if one.NumOutputs() != n*w {
		t.Error("blockSize<1 should clamp")
	}
}

// TestCSPPDepthScaling verifies the paper's headline gate-delay claims:
// the ring datapath has Θ(n) depth, the tree datapath Θ(log n).
func TestCSPPDepthScaling(t *testing.T) {
	prevTree := 0
	for _, n := range []int{4, 16, 64, 256, 1024} {
		ring := Figure5CSPP(n, false)
		tree := Figure5CSPP(n, true)
		dRing, dTree := ring.Depth(), tree.Depth()
		if dRing < n/2 {
			t.Errorf("n=%d: ring depth %d should be Θ(n)", n, dRing)
		}
		// Tree depth <= c*log2(n) + c' with small constants.
		logn := log2ceil(n)
		if dTree > 4*logn+8 {
			t.Errorf("n=%d: tree depth %d exceeds O(log n) bound (%d)", n, dTree, 4*logn+8)
		}
		if dTree < prevTree {
			t.Errorf("tree depth should be nondecreasing: n=%d depth %d < %d", n, dTree, prevTree)
		}
		prevTree = dTree
		if dTree >= dRing && n >= 16 {
			t.Errorf("n=%d: tree depth %d should beat ring depth %d", n, dTree, dRing)
		}
	}
}

// refUltra2 is the functional model of the Ultrascalar II grid search.
type u2station struct {
	dest   uint64
	writes bool
	result uint64
	args   [2]uint64
}

func refUltra2(l int, init []uint64, stations []u2station) (args [][2]uint64, regs []uint64) {
	type rrow struct {
		num    uint64
		writes bool
		val    uint64
	}
	rows := make([]rrow, 0, l+len(stations))
	for r := 0; r < l; r++ {
		rows = append(rows, rrow{num: uint64(r), writes: true, val: init[r]})
	}
	lookup := func(want uint64) uint64 {
		var v uint64
		for _, r := range rows {
			if r.writes && r.num == want {
				v = r.val
			}
		}
		return v
	}
	args = make([][2]uint64, len(stations))
	for s, st := range stations {
		args[s][0] = lookup(st.args[0])
		args[s][1] = lookup(st.args[1])
		rows = append(rows, rrow{num: st.dest, writes: st.writes, val: st.result})
	}
	regs = make([]uint64, l)
	for r := 0; r < l; r++ {
		regs[r] = lookup(uint64(r))
	}
	return args, regs
}

func driveUltra2(c *Circuit, lay Ultra2Layout, init []uint64, stations []u2station) (args [][2]uint64, regs []uint64) {
	pushBits := func(in []bool, v uint64, w int) []bool {
		for b := 0; b < w; b++ {
			in = append(in, v>>uint(b)&1 == 1)
		}
		return in
	}
	var in []bool
	for r := 0; r < lay.L; r++ {
		in = pushBits(in, init[r], lay.W+1)
	}
	for _, st := range stations {
		in = pushBits(in, st.dest, lay.DestW)
		in = append(in, st.writes)
		in = pushBits(in, st.result, lay.W+1)
		in = pushBits(in, st.args[0], lay.DestW)
		in = pushBits(in, st.args[1], lay.DestW)
	}
	raw := c.Eval(in)
	pull := func(off int) uint64 {
		var v uint64
		for b := 0; b < lay.W+1; b++ {
			if raw[off+b] {
				v |= 1 << uint(b)
			}
		}
		return v
	}
	args = make([][2]uint64, lay.N)
	for s := 0; s < lay.N; s++ {
		args[s][0] = pull((2*s + 0) * (lay.W + 1))
		args[s][1] = pull((2*s + 1) * (lay.W + 1))
	}
	regs = make([]uint64, lay.L)
	base := lay.N * 2 * (lay.W + 1)
	for r := 0; r < lay.L; r++ {
		regs[r] = pull(base + r*(lay.W+1))
	}
	return args, regs
}

// TestUltra2GridMatchesReference checks both grid variants against the
// functional model on random programs.
func TestUltra2GridMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, cfg := range []struct{ n, l, w int }{
		{1, 2, 4}, {2, 4, 4}, {4, 4, 6}, {4, 8, 6}, {6, 5, 5}, {8, 8, 8},
	} {
		for _, tree := range []bool{false, true} {
			c, lay := Ultra2Grid(cfg.n, cfg.l, cfg.w, tree)
			if c.NumInputs() != lay.NumInputs() || c.NumOutputs() != lay.NumOutputs() {
				t.Fatalf("cfg %+v tree=%v: layout counts disagree: %d/%d vs %d/%d",
					cfg, tree, c.NumInputs(), c.NumOutputs(), lay.NumInputs(), lay.NumOutputs())
			}
			for trial := 0; trial < 15; trial++ {
				init := make([]uint64, cfg.l)
				for r := range init {
					init[r] = rng.Uint64() & (1<<uint(cfg.w+1) - 1)
				}
				stations := make([]u2station, cfg.n)
				for s := range stations {
					stations[s] = u2station{
						dest:   uint64(rng.Intn(cfg.l)),
						writes: rng.Intn(4) != 0,
						result: rng.Uint64() & (1<<uint(cfg.w+1) - 1),
						args:   [2]uint64{uint64(rng.Intn(cfg.l)), uint64(rng.Intn(cfg.l))},
					}
				}
				wantArgs, wantRegs := refUltra2(cfg.l, init, stations)
				gotArgs, gotRegs := driveUltra2(c, lay, init, stations)
				for s := range wantArgs {
					if gotArgs[s] != wantArgs[s] {
						t.Fatalf("cfg %+v tree=%v station %d args: got %v want %v",
							cfg, tree, s, gotArgs[s], wantArgs[s])
					}
				}
				for r := range wantRegs {
					if gotRegs[r] != wantRegs[r] {
						t.Fatalf("cfg %+v tree=%v reg %d: got %d want %d",
							cfg, tree, r, gotRegs[r], wantRegs[r])
					}
				}
			}
		}
	}
}

// TestUltra2DepthScaling verifies the Figure 7 vs Figure 8 gate-delay
// claims: Θ(n+L) for the linear grid, Θ(log(n+L)) for the mesh-of-trees.
func TestUltra2DepthScaling(t *testing.T) {
	l, w := 8, 8
	var linDepths, treeDepths []int
	for _, n := range []int{4, 8, 16, 32} {
		lin, _ := Ultra2Grid(n, l, w, false)
		tr, _ := Ultra2Grid(n, l, w, true)
		linDepths = append(linDepths, lin.Depth())
		treeDepths = append(treeDepths, tr.Depth())
	}
	// Linear depth grows linearly: doubling n beyond L roughly doubles it.
	if linDepths[3] < linDepths[1]+16 {
		t.Errorf("linear grid depth not growing linearly: %v", linDepths)
	}
	// Tree depth grows by O(1) per doubling.
	for i := 1; i < len(treeDepths); i++ {
		if treeDepths[i]-treeDepths[i-1] > 6 {
			t.Errorf("mesh-of-trees depth growing too fast: %v", treeDepths)
		}
	}
	if treeDepths[3] >= linDepths[3] {
		t.Errorf("mesh-of-trees depth %d should beat linear %d at n=32", treeDepths[3], linDepths[3])
	}
}

func TestHybridModifiedBits(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n, l := 6, 8
	dw := log2ceil(l)
	for _, tree := range []bool{false, true} {
		c := HybridModifiedBits(n, l, tree)
		for trial := 0; trial < 30; trial++ {
			dests := make([]uint64, n)
			writes := make([]bool, n)
			var in []bool
			for s := 0; s < n; s++ {
				dests[s] = uint64(rng.Intn(l))
				writes[s] = rng.Intn(2) == 0
				for b := 0; b < dw; b++ {
					in = append(in, dests[s]>>uint(b)&1 == 1)
				}
				in = append(in, writes[s])
			}
			got := c.Eval(in)
			for r := 0; r < l; r++ {
				want := false
				for s := 0; s < n; s++ {
					if writes[s] && dests[s] == uint64(r) {
						want = true
					}
				}
				if got[r] != want {
					t.Fatalf("tree=%v reg %d: got %v want %v", tree, r, got[r], want)
				}
			}
		}
	}
}

// TestCSPPGateCounts sanity-checks the O(nW) scaling of the register CSPP
// netlist: gates per station should be roughly constant as n grows.
func TestCSPPGateCounts(t *testing.T) {
	w := 33 // 32-bit value + ready, as in the paper's empirical study
	g16 := RegisterCSPP(16, w, true).NumGates()
	g64 := RegisterCSPP(64, w, true).NumGates()
	ratio := float64(g64) / float64(g16)
	if ratio < 3.5 || ratio > 5.0 {
		t.Errorf("gate count should scale ~linearly: 16->%d, 64->%d (ratio %.2f)", g16, g64, ratio)
	}
}

func BenchmarkBuildRegisterCSPP64x33(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RegisterCSPP(64, 33, true)
	}
}

func BenchmarkBuildUltra2Grid4x32(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Ultra2Grid(4, 32, 32, true)
	}
}

func BenchmarkEvalUltra2Grid8(b *testing.B) {
	c, lay := Ultra2Grid(8, 8, 8, true)
	in := make([]bool, lay.NumInputs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Eval(in)
	}
}
