package ref

import (
	"errors"
	"testing"

	"ultrascalar/internal/asm"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
	"ultrascalar/internal/workload"
)

func run(t *testing.T, src string) *Result {
	t.Helper()
	p := asm.MustAssemble(src)
	res, err := Run(p.Insts, memory.NewFlat(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStraightLine(t *testing.T) {
	res := run(t, `
		li r1, 6
		li r2, 7
		mul r3, r1, r2
		halt
	`)
	if res.Regs[3] != 42 {
		t.Errorf("r3 = %d, want 42", res.Regs[3])
	}
	if res.Executed != 4 {
		t.Errorf("executed %d, want 4", res.Executed)
	}
}

func TestLoopSum(t *testing.T) {
	// sum 1..10 = 55
	res := run(t, `
		li r1, 10
		li r2, 0
	loop:
		add r2, r2, r1
		addi r1, r1, -1
		bne r1, r0, loop
		halt
	`)
	if res.Regs[2] != 55 {
		t.Errorf("r2 = %d, want 55", res.Regs[2])
	}
	if res.Branches != 10 || res.Taken != 9 {
		t.Errorf("branches %d taken %d, want 10/9", res.Branches, res.Taken)
	}
}

func TestMemoryOps(t *testing.T) {
	res := run(t, `
		li r1, 100   ; base
		li r2, 42
		sw r2, 0(r1)
		sw r2, 1(r1)
		lw r3, 0(r1)
		lw r4, 1(r1)
		add r5, r3, r4
		sw r5, 2(r1)
		halt
	`)
	if res.Regs[5] != 84 {
		t.Errorf("r5 = %d", res.Regs[5])
	}
	if got := res.Mem.Load(102); got != 84 {
		t.Errorf("mem[102] = %d, want 84", got)
	}
	if res.Loads != 2 || res.Stores != 3 {
		t.Errorf("loads %d stores %d", res.Loads, res.Stores)
	}
}

func TestJalCall(t *testing.T) {
	res := run(t, `
		li r1, 5
		jal r31, double
		mov r10, r2
		halt
	double:
		add r2, r1, r1
		jalr r0, r31, 0
	`)
	if res.Regs[10] != 10 {
		t.Errorf("r10 = %d, want 10", res.Regs[10])
	}
	if res.Regs[31] != 2 {
		t.Errorf("link r31 = %d, want 2", res.Regs[31])
	}
}

func TestNoZeroRegister(t *testing.T) {
	// r0 is a general register (the paper's Figure 1 writes R0).
	res := run(t, `
		li r0, 7
		add r1, r0, r0
		halt
	`)
	if res.Regs[0] != 7 || res.Regs[1] != 14 {
		t.Errorf("r0=%d r1=%d, want 7/14", res.Regs[0], res.Regs[1])
	}
}

func TestFigure1Sequence(t *testing.T) {
	// The paper's Figure 1 snapshot: initial R0=10 and the station-4
	// instruction sets R0 to 42. With R5=50, R6=8: R0 = 50-8 = 42,
	// matching the figure's value.
	p := asm.MustAssemble(`
		div r3, r1, r2
		add r0, r0, r3
		add r1, r5, r6
		add r1, r0, r1
		mul r2, r5, r6
		add r2, r2, r4
		sub r0, r5, r6
		add r4, r0, r7
		halt
	`)
	mem := memory.NewFlat()
	// Seed registers via a prologue instead: run with explicit register
	// init by prepending li instructions.
	init := asm.MustAssemble(`
		li r0, 10
		li r1, 100
		li r2, 5
		li r5, 50
		li r6, 8
		li r4, 3
		li r7, 2
	`)
	prog := append(append([]isa.Inst{}, init.Insts...), p.Insts...)
	res, err := Run(prog, mem, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[0] != 42 {
		t.Errorf("R0 = %d, want 42 (Figure 1 snapshot)", res.Regs[0])
	}
	// R3 = 100/5 = 20, R0(st7) = 10+20 = 30 then overwritten by 42.
	if res.Regs[3] != 20 {
		t.Errorf("R3 = %d, want 20", res.Regs[3])
	}
	if res.Regs[4] != 42+2 {
		t.Errorf("R4 = %d, want 44", res.Regs[4])
	}
}

func TestTrace(t *testing.T) {
	p := asm.MustAssemble("nop\nj skip\nnop\nskip: halt")
	res, err := Run(p.Insts, memory.NewFlat(), Config{KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3}
	if len(res.Trace) != len(want) {
		t.Fatalf("trace %v, want %v", res.Trace, want)
	}
	for i := range want {
		if res.Trace[i] != want[i] {
			t.Errorf("trace %v, want %v", res.Trace, want)
			break
		}
	}
	if res.FinalPC != 3 {
		t.Errorf("final pc %d", res.FinalPC)
	}
}

func TestStepLimit(t *testing.T) {
	p := asm.MustAssemble("loop: j loop")
	_, err := Run(p.Insts, memory.NewFlat(), Config{StepLimit: 100})
	if !errors.Is(err, ErrNoHalt) {
		t.Errorf("err = %v, want ErrNoHalt", err)
	}
}

func TestPCOutOfRange(t *testing.T) {
	p := asm.MustAssemble("nop") // falls off the end
	_, err := Run(p.Insts, memory.NewFlat(), Config{})
	if !errors.Is(err, ErrPCOutOfRange) {
		t.Errorf("err = %v, want ErrPCOutOfRange", err)
	}
}

func TestRegisterRangeCheck(t *testing.T) {
	prog := []isa.Inst{{Op: isa.OpAdd, Rd: 9, Rs1: 0, Rs2: 0}, {Op: isa.OpHalt}}
	if _, err := Run(prog, memory.NewFlat(), Config{NumRegs: 8}); err == nil {
		t.Error("expected register range error with 8 registers")
	}
	prog2 := []isa.Inst{{Op: isa.OpAdd, Rd: 0, Rs1: 9, Rs2: 0}, {Op: isa.OpHalt}}
	if _, err := Run(prog2, memory.NewFlat(), Config{NumRegs: 8}); err == nil {
		t.Error("expected register read range error")
	}
}

func TestFlatMemory(t *testing.T) {
	f := memory.NewFlat()
	f.Store(5, 9)
	f.Store(6, 0) // storing zero keeps map canonical
	if f.Load(5) != 9 || f.Load(6) != 0 || f.Load(7) != 0 {
		t.Error("flat load/store wrong")
	}
	if f.Len() != 1 {
		t.Errorf("len = %d, want 1", f.Len())
	}
	g := f.Clone()
	if !f.Equal(g) {
		t.Error("clone should be equal")
	}
	g.Store(5, 10)
	if f.Equal(g) {
		t.Error("should differ after store")
	}
	if d := f.Diff(g); d == "equal" || d == "" {
		t.Errorf("diff = %q", d)
	}
	if d := f.Diff(f.Clone()); d != "equal" {
		t.Errorf("self diff = %q", d)
	}
	f.Store(5, 0)
	if f.Len() != 0 {
		t.Error("storing zero should erase")
	}
	h := memory.NewFlat()
	h.LoadWords(10, []isa.Word{1, 2, 3})
	if h.Load(12) != 3 {
		t.Error("LoadWords wrong")
	}
	// Equal with differing keys of same count.
	x, y := memory.NewFlat(), memory.NewFlat()
	x.Store(1, 1)
	y.Store(2, 1)
	if x.Equal(y) {
		t.Error("different keys should not be equal")
	}
}

// TestMachineStepAllocFree pins the golden checker's per-retire cost:
// Effect plus Advance allocate nothing on a kernel's non-error path.
// Bubble sort loads, stores (to words already in memory), branches and
// does arithmetic, so every non-error Effect case is exercised.
func TestMachineStepAllocFree(t *testing.T) {
	const runs = 20
	w := workload.BubbleSort(12)
	machines := make([]*Machine, runs+1) // AllocsPerRun adds a warm-up call
	for i := range machines {
		machines[i] = NewMachine(w.Prog, w.Mem(), 0, nil)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		m := machines[next]
		next++
		for !m.Halted() {
			eff, err := m.Effect()
			if err != nil {
				t.Fatal(err)
			}
			m.Advance(eff)
		}
	})
	if allocs != 0 {
		t.Fatalf("Effect+Advance allocated %.1f times per kernel run, want 0", allocs)
	}
	if got := machines[runs].Executed(); got < 100 {
		t.Fatalf("kernel retired only %d instructions", got)
	}
}
