// Package ref implements the golden sequential interpreter for the ISA.
// Every processor simulator in this repository is cross-checked against it:
// the architectural register file and data memory at halt must match
// exactly, instruction for instruction, because the paper's processors "all
// implement identical instruction sets, with identical scheduling policies"
// and differ only in VLSI complexity.
package ref

import (
	"errors"
	"fmt"

	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
)

// ErrNoHalt is returned when the step limit is exhausted before a halt
// instruction commits.
var ErrNoHalt = errors.New("ref: step limit exceeded without halt")

// ErrPCOutOfRange is returned when control transfers outside the program.
var ErrPCOutOfRange = errors.New("ref: PC out of range")

// Result is the outcome of a program run: final architectural state plus
// the dynamic instruction stream statistics.
type Result struct {
	Regs     []isa.Word // final register values, length = number of regs
	Mem      *memory.Flat
	Executed int   // dynamically executed instructions, including halt
	Trace    []int // PCs in execution order (only if Config.KeepTrace)
	Branches int   // dynamic conditional branches
	Taken    int   // of which taken
	Loads    int
	Stores   int
	FinalPC  int
}

// Config controls a reference run.
type Config struct {
	NumRegs   int  // number of logical registers; 0 means isa.NumRegs
	StepLimit int  // maximum dynamic instructions; 0 means 1<<22
	KeepTrace bool // record the dynamic PC trace
}

// Run executes the program from PC 0 until a halt instruction, using mem as
// data memory (mutated in place; pass a clone if you need the original).
// Registers start at zero. It is a loop over Machine.Effect/Advance, so the
// batch interpreter and the steppable checker can never diverge.
func Run(prog []isa.Inst, mem *memory.Flat, cfg Config) (*Result, error) {
	m := NewMachine(prog, mem, cfg.NumRegs, nil)
	limit := cfg.StepLimit
	if limit == 0 {
		limit = 1 << 22
	}
	res := &Result{Regs: m.regs, Mem: mem}

	for steps := 0; steps < limit; steps++ {
		eff, err := m.Effect()
		if err != nil {
			return res, err
		}
		if cfg.KeepTrace {
			res.Trace = append(res.Trace, eff.PC)
		}
		res.Executed++
		switch {
		case eff.Halt:
			res.FinalPC = eff.PC
			return res, nil
		case eff.IsLoad:
			res.Loads++
		case eff.IsStore:
			res.Stores++
		case eff.Branch:
			res.Branches++
			if eff.Taken {
				res.Taken++
			}
		}
		m.Advance(eff)
	}
	return res, ErrNoHalt
}

// readOperands fetches the instruction's source values: a is the first
// operand (rs1), b the second (rs2).
func readOperands(in isa.Inst, regs []isa.Word) (a, b isa.Word) {
	switch isa.FormatOf(in.Op) {
	case isa.FormatR, isa.FormatB:
		return regs[in.Rs1], regs[in.Rs2]
	case isa.FormatI:
		return regs[in.Rs1], 0
	default:
		return 0, 0
	}
}

func checkRegs(in isa.Inst, nregs int) error {
	r1, r2, n := in.ReadRegs()
	reads := [2]uint8{r1, r2}
	for _, r := range reads[:n] {
		if int(r) >= nregs {
			return fmt.Errorf("ref: %s reads r%d but machine has %d registers", in, r, nregs)
		}
	}
	if d, ok := in.Writes(); ok && int(d) >= nregs {
		return fmt.Errorf("ref: %s writes r%d but machine has %d registers", in, d, nregs)
	}
	return nil
}
