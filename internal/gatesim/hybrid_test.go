package gatesim

import (
	"testing"

	"ultrascalar/internal/circuit"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
	"ultrascalar/internal/ref"
	"ultrascalar/internal/workload"
)

func crossCheckHybrid(t *testing.T, w workload.Workload, cfg HybridConfig) *Result {
	t.Helper()
	if cfg.NumRegs == 0 {
		cfg.NumRegs = isa.NumRegs
	}
	if cfg.Width == 0 {
		cfg.Width = 32
	}
	want, err := ref.Run(w.Prog, w.Mem(), ref.Config{NumRegs: cfg.NumRegs})
	if err != nil {
		t.Fatalf("%s: golden: %v", w.Name, err)
	}
	got, err := RunHybrid(w.Prog, w.Mem(), cfg)
	if err != nil {
		t.Fatalf("%s: gate-level hybrid: %v", w.Name, err)
	}
	for r := range want.Regs {
		if got.Regs[r] != want.Regs[r] {
			t.Errorf("%s: r%d = %d, golden %d", w.Name, r, got.Regs[r], want.Regs[r])
		}
	}
	if !got.Mem.Equal(want.Mem) {
		t.Errorf("%s: memory mismatch: %s", w.Name, got.Mem.Diff(want.Mem))
	}
	if got.Retired != int64(want.Executed) {
		t.Errorf("%s: retired %d, golden %d", w.Name, got.Retired, want.Executed)
	}
	return got
}

// TestHybridKernelsThroughGates runs the kernel suite through the
// gate-level hybrid: cluster grids + Figure 9 OR netlists + inter-cluster
// CSPP.
func TestHybridKernelsThroughGates(t *testing.T) {
	for _, w := range workload.Kernels() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			crossCheckHybrid(t, w, HybridConfig{Window: 8, Cluster: 4})
		})
	}
}

func TestHybridGeometries(t *testing.T) {
	w := workload.Fib(10)
	for _, g := range []struct{ n, c int }{{4, 2}, {8, 2}, {8, 4}, {8, 8}, {4, 1}} {
		crossCheckHybrid(t, w, HybridConfig{Window: g.n, Cluster: g.c})
	}
}

// TestHybridBetweenUltra1And2Gates: on straight-line code, the gate-level
// hybrid sits between per-station and whole-batch refill.
func TestHybridBetweenUltra1And2Gates(t *testing.T) {
	w := workload.MixedILP(60, 12, 6, 8)
	u1, err := Run(w.Prog, w.Mem(), Config{Window: 8, NumRegs: isa.NumRegs, Width: 32})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := RunHybrid(w.Prog, w.Mem(), HybridConfig{Window: 8, Cluster: 4, NumRegs: isa.NumRegs, Width: 32})
	if err != nil {
		t.Fatal(err)
	}
	u2, err := RunUltra2(w.Prog, w.Mem(), Config{Window: 8, NumRegs: isa.NumRegs, Width: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !(u1.Cycles <= hy.Cycles && hy.Cycles <= u2.Cycles) {
		t.Errorf("gate-level cycles should order UltraI (%d) <= hybrid (%d) <= UltraII (%d)",
			u1.Cycles, hy.Cycles, u2.Cycles)
	}
}

func TestHybridErrors(t *testing.T) {
	halt := []isa.Inst{{Op: isa.OpHalt}}
	if _, err := RunHybrid(halt, memory.NewFlat(), HybridConfig{Window: 8, Cluster: 3}); err == nil {
		t.Error("C not dividing n should fail")
	}
	if _, err := RunHybrid(halt, memory.NewFlat(), HybridConfig{Window: 0, Cluster: 1}); err == nil {
		t.Error("window 0 should fail")
	}
	off := []isa.Inst{{Op: isa.OpNop}}
	if _, err := RunHybrid(off, memory.NewFlat(), HybridConfig{Window: 4, Cluster: 2}); err == nil {
		t.Error("running off the end should fail")
	}
}

// TestClusterModifiedBitsNetlist exercises the Figure 9 OR circuit
// directly.
func TestClusterModifiedBitsNetlist(t *testing.T) {
	res, err := RunHybrid([]isa.Inst{
		{Op: isa.OpLi, Rd: 3, Imm: 7},
		{Op: isa.OpLi, Rd: 5, Imm: 9},
		{Op: isa.OpAdd, Rd: 6, Rs1: 3, Rs2: 5},
		{Op: isa.OpHalt},
	}, memory.NewFlat(), HybridConfig{Window: 4, Cluster: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[6] != 16 {
		t.Errorf("r6 = %d, want 16", res.Regs[6])
	}
}

// TestClusterModifiedBitsKeptAcrossRefill: all clusters share one
// instance of the Figure 9 OR netlist, whose output is rewritten at every
// refill, so one cluster refilling must leave another cluster's latched
// modified bits alone.
func TestClusterModifiedBitsKeptAcrossRefill(t *testing.T) {
	const c, l = 2, 8
	modOR := circuit.HybridModifiedBits(c, l, true).NewEvaluator()
	load := func(cl *unit, dests ...uint8) {
		cl.stations = cl.stations[:0]
		for _, d := range dests {
			cl.stations = append(cl.stations, &station{inst: isa.Inst{Op: isa.OpLi, Rd: d, Imm: 1}})
		}
		cl.loadModified(modOR, c, l)
	}
	want := func(name string, cl *unit, dests ...int) {
		t.Helper()
		exp := make([]bool, l)
		for _, d := range dests {
			exp[d] = true
		}
		for r := range exp {
			if cl.modified[r] != exp[r] {
				t.Errorf("%s: modified[r%d] = %v, want %v", name, r, cl.modified[r], exp[r])
			}
		}
	}
	a := &unit{modified: make([]bool, l)}
	b := &unit{modified: make([]bool, l)}
	load(a, 3, 5)
	load(b, 1, 6)
	want("a after b's refill", a, 3, 5)
	want("b", b, 1, 6)
	load(a, 2)
	want("a refilled", a, 2)
	want("b after a's refill", b, 1, 6)
}
