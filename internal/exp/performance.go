package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"ultrascalar/internal/analysis"
	"ultrascalar/internal/core"
	"ultrascalar/internal/memory"
	"ultrascalar/internal/vlsi"
	"ultrascalar/internal/workload"
)

// E8: instructions per cycle of the three processors on the kernel suite.
// The paper claims identical scheduling across the three designs; the only
// architectural performance difference is refill granularity (Section 4:
// the Ultrascalar II idles waiting for the batch; Section 6: the hybrid
// refills per cluster).

// IPCRow is one workload's IPC on the three processors.
type IPCRow struct {
	Workload                     string
	CyclesU1, CyclesHy, CyclesU2 int64
	IPCU1, IPCHy, IPCU2          float64
	// OccU1/OccHy/OccU2 are mean station occupancies: the batch datapath
	// shows its idling here ("stations idle waiting for everyone to
	// finish before refilling").
	OccU1, OccHy, OccU2 float64
}

// IPC runs the kernel suite on all three processors at window n with
// hybrid clusters of c. The per-workload runs fan out across the sweep
// pool; row order matches workload.Kernels.
func IPC(n, c int) ([]IPCRow, error) {
	return IPCCtx(sweepContext(), n, c)
}

// IPCCtx is IPC bounded by an explicit context: once ctx is canceled,
// running kernels stop within one watchdog interval (core.RunCtx), no
// further kernels start, and the sweep returns an error wrapping ctx's.
// The serve layer uses this form so concurrent jobs carry independent
// deadlines.
func IPCCtx(ctx context.Context, n, c int) ([]IPCRow, error) {
	return parMapCtx(ctx, workload.Kernels(), func(w workload.Workload) (IPCRow, error) {
		r1, err := core.RunCtx(ctx, w.Prog, w.Mem(), core.Config{Window: n, Granularity: 1})
		if err != nil {
			return IPCRow{}, fmt.Errorf("%s on UltraI: %w", w.Name, err)
		}
		rh, err := core.RunCtx(ctx, w.Prog, w.Mem(), core.Config{Window: n, Granularity: c})
		if err != nil {
			return IPCRow{}, fmt.Errorf("%s on hybrid: %w", w.Name, err)
		}
		r2, err := core.RunCtx(ctx, w.Prog, w.Mem(), core.Config{Window: n, Granularity: n})
		if err != nil {
			return IPCRow{}, fmt.Errorf("%s on UltraII: %w", w.Name, err)
		}
		return IPCRow{
			Workload: w.Name,
			CyclesU1: r1.Stats.Cycles, CyclesHy: rh.Stats.Cycles, CyclesU2: r2.Stats.Cycles,
			IPCU1: r1.Stats.IPC(), IPCHy: rh.Stats.IPC(), IPCU2: r2.Stats.IPC(),
			OccU1: r1.Stats.MeanOccupancy(), OccHy: rh.Stats.MeanOccupancy(),
			OccU2: r2.Stats.MeanOccupancy(),
		}, nil
	})
}

// IPCReport renders E8.
func IPCReport(n, c int) (string, error) {
	return IPCReportCtx(sweepContext(), n, c)
}

// IPCReportCtx renders E8, bounded by ctx.
func IPCReportCtx(ctx context.Context, n, c int) (string, error) {
	rows, err := IPCCtx(ctx, n, c)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E8: IPC on the kernel suite (window n=%d, hybrid C=%d)\n\n", n, c)
	tab := analysis.NewTable("workload", "IPC UltraI", "IPC hybrid", "IPC UltraII",
		"occ UltraI", "occ hybrid", "occ UltraII")
	for _, r := range rows {
		tab.Row(r.Workload, r.IPCU1, r.IPCHy, r.IPCU2,
			fmt.Sprintf("%.1f", r.OccU1), fmt.Sprintf("%.1f", r.OccHy),
			fmt.Sprintf("%.1f", r.OccU2))
	}
	b.WriteString(tab.String())
	b.WriteString("\nUltrascalar I >= hybrid >= Ultrascalar II: the batch datapath idles\nwaiting for everyone to finish before refilling (Section 4).\n")
	return b.String(), nil
}

// E9: operand locality for the Section 7 self-timed estimate. The paper:
// "Half of the communications paths from one station to its successor are
// completely local. In such a processor, a program could run faster if
// most of its instructions depend on their immediate predecessors."

// LocalityRow summarizes operand sourcing for one workload.
type LocalityRow struct {
	Workload     string
	FromPrevious float64 // fraction of operands produced by the immediately preceding instruction
	FromNear     float64 // fraction from within 4 instructions
	FromInitial  float64 // fraction from the initial register file
	MeanDistance float64
}

// Locality runs the kernels on an n-station Ultrascalar I and aggregates
// operand producer distances. The per-kernel runs fan out across the
// sweep pool.
func Locality(n int) ([]LocalityRow, error) {
	perKernel, err := parMap(workload.Kernels(), func(w workload.Workload) (*LocalityRow, error) {
		res, err := core.Run(w.Prog, w.Mem(), core.Config{Window: n, Granularity: 1})
		if err != nil {
			return nil, err
		}
		var total, prev, near, sum int64
		for d, c := range res.Stats.OperandFromStation {
			total += c
			sum += int64(d) * c
			if d == 1 {
				prev += c
			}
			if d <= 4 {
				near += c
			}
		}
		init := res.Stats.OperandFromCommitted
		all := total + init
		if all == 0 {
			return nil, nil
		}
		return &LocalityRow{
			Workload:     w.Name,
			FromPrevious: float64(prev) / float64(all),
			FromNear:     float64(near) / float64(all),
			FromInitial:  float64(init) / float64(all),
			MeanDistance: float64(sum) / float64(max(total, 1)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []LocalityRow
	for _, r := range perKernel {
		if r != nil {
			rows = append(rows, *r)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
	return rows, nil
}

// LocalityReport renders E9.
func LocalityReport(n int) (string, error) {
	rows, err := Locality(n)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E9: operand producer distance on the kernel suite (n=%d)\n\n", n)
	tab := analysis.NewTable("workload", "from prev inst", "within 4", "from initial", "mean dist")
	for _, r := range rows {
		tab.Row(r.Workload,
			fmt.Sprintf("%.0f%%", 100*r.FromPrevious),
			fmt.Sprintf("%.0f%%", 100*r.FromNear),
			fmt.Sprintf("%.0f%%", 100*r.FromInitial),
			r.MeanDistance)
	}
	b.WriteString(tab.String())
	b.WriteString("\nSection 7's self-timed estimate: station-to-successor paths are local,\nso programs dominated by distance-1 dependences would speed up most.\n")
	return b.String(), nil
}

// E11: end-to-end runtime — cycle counts from the simulators scaled by the
// clock period implied by each processor's physical model, combining the
// paper's architectural claim (identical ILP) with its VLSI claim (very
// different clock paths).

// EndToEndRow is one configuration's runtime estimate.
type EndToEndRow struct {
	N       int
	Arch    string
	Cycles  int64
	ClockPs float64
	TimeUs  float64
}

// EndToEnd runs a mixed workload and combines it with the clock model.
// The hybrid uses C = min(L, n). Every (n, architecture) point is an
// independent simulation plus layout build, fanned out across the sweep
// pool; row order is ns-major, architecture-minor, as before.
func EndToEnd(l, w int, ns []int, t vlsi.Tech) ([]EndToEndRow, error) {
	m := memory.MPow(1, 0.5)
	wk := workload.MixedILP(2000, 16, 12, 99)
	type arch struct {
		name string
		cfg  core.Config
		md   func() (*vlsi.Model, error)
	}
	var points []arch
	for _, n := range ns {
		n := n
		c := min(l, n)
		points = append(points,
			arch{"Ultrascalar I", core.Config{Window: n, Granularity: 1}, func() (*vlsi.Model, error) {
				return vlsi.UltraIModel(n, l, w, m, t, vlsi.UltraIOptions{})
			}},
			arch{"Hybrid Ultrascalar", core.Config{Window: n, Granularity: c}, func() (*vlsi.Model, error) {
				return vlsi.HybridModel(n, c, l, w, m, t, vlsi.Ultra2Linear)
			}},
			arch{"Ultrascalar II (mixed)", core.Config{Window: n, Granularity: n}, func() (*vlsi.Model, error) {
				return vlsi.Ultra2Model(n, l, w, m, t, vlsi.Ultra2Mixed)
			}},
		)
	}
	return parMap(points, func(a arch) (EndToEndRow, error) {
		res, err := core.Run(wk.Prog, wk.Mem(), a.cfg)
		if err != nil {
			return EndToEndRow{}, err
		}
		md, err := a.md()
		if err != nil {
			return EndToEndRow{}, err
		}
		clock := md.ClockPs(t)
		return EndToEndRow{
			N: a.cfg.Window, Arch: a.name, Cycles: res.Stats.Cycles,
			ClockPs: clock,
			TimeUs:  float64(res.Stats.Cycles) * clock / 1e6,
		}, nil
	})
}

// CrossoverRow records the fastest architecture at one scale.
type CrossoverRow struct {
	N      int
	Winner string
	TimeUs map[string]float64
}

// Crossover sweeps n and reports which architecture has the lowest
// end-to-end runtime at each scale — the practical reading of the paper's
// Figure 11 dominance claims.
func Crossover(l, w int, ns []int, t vlsi.Tech) ([]CrossoverRow, error) {
	rows, err := EndToEnd(l, w, ns, t)
	if err != nil {
		return nil, err
	}
	byN := map[int]map[string]float64{}
	for _, r := range rows {
		if byN[r.N] == nil {
			byN[r.N] = map[string]float64{}
		}
		byN[r.N][r.Arch] = r.TimeUs
	}
	var out []CrossoverRow
	for _, n := range ns {
		winner := ""
		best := 0.0
		for arch, us := range byN[n] {
			if winner == "" || us < best {
				winner, best = arch, us
			}
		}
		out = append(out, CrossoverRow{N: n, Winner: winner, TimeUs: byN[n]})
	}
	return out, nil
}

// CrossoverReport renders the winner-by-scale table.
func CrossoverReport(l, w int, ns []int, t vlsi.Tech) (string, error) {
	rows, err := Crossover(l, w, ns, t)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E11b: fastest architecture by scale (L=%d)\n\n", l)
	tab := analysis.NewTable("n", "winner", "runtime (us)")
	for _, r := range rows {
		tab.Row(r.N, r.Winner, r.TimeUs[r.Winner])
	}
	b.WriteString(tab.String())
	return b.String(), nil
}

// EndToEndReport renders E11.
func EndToEndReport(l, w int, ns []int, t vlsi.Tech) (string, error) {
	rows, err := EndToEnd(l, w, ns, t)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E11: end-to-end runtime = cycles x clock period (L=%d, M=sqrt)\n\n", l)
	tab := analysis.NewTable("n", "processor", "cycles", "clock (ps)", "runtime (us)")
	for _, r := range rows {
		tab.Row(r.N, r.Arch, r.Cycles, r.ClockPs, r.TimeUs)
	}
	b.WriteString(tab.String())
	return b.String(), nil
}
