package gatesim

import (
	"testing"

	"ultrascalar/internal/core"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
	"ultrascalar/internal/ref"
	"ultrascalar/internal/workload"
)

func crossCheck2(t *testing.T, w workload.Workload, cfg Config) *Result {
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
	got, err := RunUltra2(w.Prog, w.Mem(), cfg)
	if err != nil {
		t.Fatalf("%s: gate-level UltraII: %v", w.Name, err)
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

// TestUltra2KernelsThroughGates runs the kernel suite through the actual
// Figure 7/8 grid netlists.
func TestUltra2KernelsThroughGates(t *testing.T) {
	for _, w := range workload.Kernels() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			crossCheck2(t, w, Config{Window: 4})
		})
	}
}

func TestUltra2WindowSizes(t *testing.T) {
	w := workload.Fib(10)
	for _, n := range []int{1, 2, 4, 6} {
		crossCheck2(t, w, Config{Window: n})
	}
}

// TestUltra2GateLevelILP: within a straight-line batch, independent
// instructions execute in parallel through the grid, so a batch of
// independent adds takes far fewer cycles than its instruction count.
func TestUltra2GateLevelILP(t *testing.T) {
	w := workload.Parallel(16, 8)
	res := crossCheck2(t, w, Config{Window: 8, NumRegs: 16, Width: 16})
	// 17 instructions in 3 batches; each batch of independent LIs takes
	// about 1 cycle of execution.
	if res.Cycles > 12 {
		t.Errorf("independent batch took %d cycles; grid should extract ILP", res.Cycles)
	}
}

// TestUltra2OutOfOrderWithinBatch reproduces the Figure 7 behaviour:
// a later instruction reading a register written by a finished station
// issues before an earlier unfinished one ("Note that the column ignores
// the earlier, unfinished write to R2 by Station 0; allowing Station 3 to
// issue out of order").
func TestUltra2OutOfOrderWithinBatch(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.OpLi, Rd: 1, Imm: 40},
		{Op: isa.OpLi, Rd: 2, Imm: 4},
		{Op: isa.OpDiv, Rd: 3, Rs1: 1, Rs2: 2}, // slow write of r3
		{Op: isa.OpAdd, Rd: 4, Rs1: 1, Rs2: 2}, // independent: issues immediately
		{Op: isa.OpAdd, Rd: 5, Rs1: 4, Rs2: 2}, // consumes the fast result
		{Op: isa.OpAdd, Rd: 6, Rs1: 3, Rs2: 2}, // waits for the divide
		{Op: isa.OpHalt},
	}
	w := workload.Workload{Name: "ooo", Prog: prog}
	res := crossCheck2(t, w, Config{Window: 8, NumRegs: 8, Width: 16})
	if res.Regs[3] != 10 || res.Regs[4] != 44 || res.Regs[5] != 48 || res.Regs[6] != 14 {
		t.Errorf("results wrong: %v", res.Regs)
	}
	// The batch's span is the divide (10) plus its consumer (1) plus
	// batch overheads — far less than a serialized 10+1+1+1+1.
	if res.Cycles > 16 {
		t.Errorf("batch took %d cycles; expected out-of-order overlap", res.Cycles)
	}
}

// TestUltra2SlowerThanUltra1Gates: the same loop on both gate-level
// simulators shows the batch-refill penalty at the gate level too.
func TestUltra2SlowerThanUltra1Gates(t *testing.T) {
	w := workload.VecSum(20)
	u2, err := RunUltra2(w.Prog, w.Mem(), Config{Window: 4, NumRegs: isa.NumRegs, Width: 32})
	if err != nil {
		t.Fatal(err)
	}
	u1, err := Run(w.Prog, w.Mem(), Config{Window: 4, NumRegs: isa.NumRegs, Width: 32})
	if err != nil {
		t.Fatal(err)
	}
	if u2.Cycles < u1.Cycles {
		t.Errorf("gate-level UltraII (%d cycles) should not beat UltraI (%d)", u2.Cycles, u1.Cycles)
	}
	// Check against the functional engine's Ultrascalar I too, for reference.
	if _, err := core.Run(w.Prog, w.Mem(), core.Config{Window: 4, Granularity: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestUltra2GateLevelMemoryArbitration: bandwidth throttling through the
// arbiter netlist on the batch datapath.
func TestUltra2GateLevelMemoryArbitration(t *testing.T) {
	w := workload.LoadBurst(20, 16)
	narrow := crossCheck2(t, w, Config{Window: 4, NumRegs: 16, MemBandwidth: 1})
	free := crossCheck2(t, w, Config{Window: 4, NumRegs: 16})
	if narrow.Cycles <= free.Cycles {
		t.Errorf("M=1 (%d cycles) should cost more than unlimited (%d)",
			narrow.Cycles, free.Cycles)
	}
}

func TestUltra2GatesErrors(t *testing.T) {
	if _, err := RunUltra2([]isa.Inst{{Op: isa.OpHalt}}, memory.NewFlat(), Config{Window: 0}); err == nil {
		t.Error("window 0 should fail")
	}
	off := []isa.Inst{{Op: isa.OpNop}}
	if _, err := RunUltra2(off, memory.NewFlat(), Config{Window: 4}); err == nil {
		t.Error("running off the end should fail")
	}
	bad := []isa.Inst{{Op: isa.OpAdd, Rd: 30, Rs1: 0, Rs2: 0}, {Op: isa.OpHalt}}
	if _, err := RunUltra2(bad, memory.NewFlat(), Config{Window: 2, NumRegs: 8, Width: 8}); err == nil {
		t.Error("register range should fail")
	}
}
