package circuit

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// incrementalCases is every generator family the datapath simulators
// evaluate repeatedly, at sizes small enough to sweep quickly.
var incrementalCases = []struct {
	name  string
	build func() *Circuit
}{
	{"cspp-ring", func() *Circuit { return RegisterCSPP(6, 5, false) }},
	{"cspp-tree", func() *Circuit { return RegisterCSPP(6, 5, true) }},
	{"figure5-ring", func() *Circuit { return Figure5CSPP(7, false) }},
	{"figure5-tree", func() *Circuit { return Figure5CSPP(7, true) }},
	{"ultra2-linear", func() *Circuit { c, _ := Ultra2Grid(3, 4, 3, false); return c }},
	{"ultra2-tree", func() *Circuit { c, _ := Ultra2Grid(3, 4, 3, true); return c }},
	{"hybrid-or-series", func() *Circuit { return HybridModifiedBits(4, 8, false) }},
	{"hybrid-or-tree", func() *Circuit { return HybridModifiedBits(4, 8, true) }},
	{"fat-tree-arbiter", func() *Circuit { c, _ := FatTreeArbiter(8, 4, []int{1, 2, 2}); return c }},
	{"alu-ripple", func() *Circuit { return ALU(6, false) }},
	{"alu-prefix", func() *Circuit { return ALU(6, true) }},
	{"scheduler", func() *Circuit { return Scheduler(8, 3) }},
}

// nextVector rewrites in for one step of an input sequence: kind 0 flips
// one bit, 1 draws a fully random vector, 2 repeats the last vector
// exactly, and 3 flips a few bits.
func nextVector(in []bool, kind int, rng *rand.Rand) {
	if len(in) == 0 {
		return
	}
	switch kind {
	case 0:
		i := rng.Intn(len(in))
		in[i] = !in[i]
	case 1:
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
	case 3:
		for k := 1 + rng.Intn(4); k > 0; k-- {
			i := rng.Intn(len(in))
			in[i] = !in[i]
		}
	}
}

// requireSameOutputs compares the incremental evaluator's answer with a
// one-shot full evaluation of the same inputs.
func requireSameOutputs(t *testing.T, c *Circuit, got, in []bool, step int) {
	t.Helper()
	want := c.Eval(in)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: output %d = %v, full evaluation gives %v", step, i, got[i], want[i])
		}
	}
}

// TestIncrementalMatchesEval drives every generator through a seeded
// input sequence mixing single-bit flips, random vectors, exact repeats
// and small bursts of flips; the incremental evaluator must agree with a
// full evaluation at every step.
func TestIncrementalMatchesEval(t *testing.T) {
	for _, tc := range incrementalCases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			ev := c.NewEvaluator()
			rng := rand.New(rand.NewSource(27))
			in := make([]bool, c.NumInputs())
			for step := 0; step < 400; step++ {
				nextVector(in, rng.Intn(4), rng)
				requireSameOutputs(t, c, ev.Eval(in), in, step)
			}
		})
	}
}

// TestEvaluatorsIndependent checks that evaluators over one netlist keep
// separate state and separate output buffers, as the simulators rely on
// when they keep one instance per replica of a shared netlist.
func TestEvaluatorsIndependent(t *testing.T) {
	c, _ := Ultra2Grid(3, 4, 3, true)
	a, b := c.NewEvaluator(), c.NewEvaluator()
	rng := rand.New(rand.NewSource(5))
	inA := make([]bool, c.NumInputs())
	inB := make([]bool, c.NumInputs())
	for step := 0; step < 200; step++ {
		nextVector(inA, rng.Intn(4), rng)
		nextVector(inB, 1, rng)
		outA := a.Eval(inA)
		requireSameOutputs(t, c, b.Eval(inB), inB, step)
		// b's call must leave a's buffer and a's gate values alone.
		requireSameOutputs(t, c, outA, inA, step)
		requireSameOutputs(t, c, a.Eval(inA), inA, step)
	}
}

// TestEvaluatorsConcurrent: evaluators over one netlist may run on
// separate goroutines; the lazily built fan-out index is their only
// shared state. Run with -race.
func TestEvaluatorsConcurrent(t *testing.T) {
	c := RegisterCSPP(6, 5, true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ev := c.NewEvaluator()
			rng := rand.New(rand.NewSource(seed))
			in := make([]bool, c.NumInputs())
			for step := 0; step < 100; step++ {
				nextVector(in, rng.Intn(4), rng)
				if !slices.Equal(ev.Eval(in), c.Eval(in)) {
					t.Errorf("goroutine %d step %d: incremental and full evaluation differ", seed, step)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestEvaluatorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	c := New()
	x := c.NewInput()
	c.Output(c.Not(x))
	ev := c.NewEvaluator()
	mustPanic("short input", func() { ev.Eval(nil) })
	c.Output(c.Buf(x))
	mustPanic("grown netlist", func() { ev.Eval([]bool{true}) })
}

// FuzzIncrementalEval drives a generator chosen by gen through an input
// sequence shaped by ops (one step per byte: its low two bits choose a
// flip, a random vector, a repeat or a burst of flips), with bits drawn
// from seed.
func FuzzIncrementalEval(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{1, 0, 2, 3, 0, 0, 2, 1})
	f.Add(uint8(5), int64(2), []byte{1, 2, 2, 0, 3, 1, 0})
	f.Add(uint8(8), int64(3), []byte{0, 0, 0, 0, 1, 2})
	f.Add(uint8(11), int64(4), []byte{3, 3, 1, 2, 0})
	f.Fuzz(func(t *testing.T, gen uint8, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		c := incrementalCases[int(gen)%len(incrementalCases)].build()
		ev := c.NewEvaluator()
		rng := rand.New(rand.NewSource(seed))
		in := make([]bool, c.NumInputs())
		for step, op := range ops {
			nextVector(in, int(op&3), rng)
			requireSameOutputs(t, c, ev.Eval(in), in, step)
		}
	})
}

func BenchmarkEvaluatorUltra2Grid8(b *testing.B) {
	c, lay := Ultra2Grid(8, 8, 8, true)
	ev := c.NewEvaluator()
	rng := rand.New(rand.NewSource(1))
	in := make([]bool, lay.NumInputs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nextVector(in, 0, rng)
		ev.Eval(in)
	}
}
