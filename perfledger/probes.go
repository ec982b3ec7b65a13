package main

import (
	"context"
	"fmt"
	"time"

	"ultrascalar/internal/core"
	"ultrascalar/internal/exp"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/gatesim"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
	obslog "ultrascalar/internal/obs/log"
	"ultrascalar/internal/ref"
	"ultrascalar/internal/workload"
)

// Probes time single calls into one layer's public functions with the
// arguments the workloads pass, so a layer's cost shows apart from the
// workload around it.

// timeCalls runs f in batches of n calls for about d (at least three
// batches) and returns the median per-call time.
func timeCalls(d time.Duration, n int, f func(i int) error) (time.Duration, error) {
	var per []float64
	start := time.Now()
	for k := 0; time.Since(start) < d || len(per) < 3; k++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(k*n + i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return time.Duration(median(per)), nil
}

// probeLayers records the set-up cost of one engine run, fault-plan
// generation, the reference interpreter and the gate-level simulators.
func probeLayers(ctx context.Context, rec *obslog.SpanRecorder, m *measurement) error {
	sp := rec.Start("probes", "probes", "")
	defer sp.End()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	// core.RunCtx on a one-instruction program is all per-run set-up.
	halt := []isa.Inst{{Op: isa.OpHalt}}
	for _, n := range []int{16, 256, 4096} {
		cfg, _ := exp.ArchConfig("ultra1", n, 0)
		d, err := timeCalls(60*time.Millisecond, 20, func(int) error {
			_, err := core.RunCtx(ctx, halt, memory.NewFlat(), cfg)
			return err
		})
		if err != nil {
			return fmt.Errorf("core set-up probe at n=%d: %w", n, err)
		}
		m.values[fmt.Sprintf("core.setup_us.n%d", n)] = us(d)
	}

	// fault.NewPlan with a campaign trial's arguments.
	fib := exp.FaultWorkloads()[0]
	cfg, _ := exp.ArchConfig("ultra1", campaignWindow, 0)
	clean, err := core.RunCtx(ctx, fib.Prog, fib.Mem(), cfg)
	if err != nil {
		return err
	}
	d, err := timeCalls(60*time.Millisecond, 200, func(i int) error {
		fault.NewPlan(int64(i), fault.GenParams{Window: campaignWindow, NumRegs: isa.NumRegs,
			MaxCycle: clean.Stats.Cycles - 1, Sites: []fault.Site{fault.AllSites()[i%len(fault.AllSites())]}, N: 1})
		return nil
	})
	if err != nil {
		return err
	}
	m.values["fault.newplan_us"] = us(d)

	// ref.Run on the campaign's programs: its golden runs.
	wls := exp.FaultWorkloads()
	d, err = timeCalls(60*time.Millisecond, 30, func(i int) error {
		w := wls[i%len(wls)]
		_, err := ref.Run(w.Prog, w.Mem(), ref.Config{})
		return err
	})
	if err != nil {
		return err
	}
	m.values["ref.run_us"] = us(d)

	// The gate-level simulators with E18's arguments (window 4, hybrid
	// clusters of 2) on one kernel of its suite.
	gcd := workload.GCD(1071, 462)
	gcfg := gatesim.Config{Window: 4, NumRegs: isa.NumRegs, Width: 32}
	for _, g := range []struct {
		name string
		run  func() error
	}{
		{"ultra1", func() error { _, err := gatesim.Run(gcd.Prog, gcd.Mem(), gcfg); return err }},
		{"ultra2", func() error { _, err := gatesim.RunUltra2(gcd.Prog, gcd.Mem(), gcfg); return err }},
		{"hybrid", func() error {
			_, err := gatesim.RunHybrid(gcd.Prog, gcd.Mem(), gatesim.HybridConfig{Window: 4, Cluster: 2, NumRegs: isa.NumRegs, Width: 32})
			return err
		}},
	} {
		d, err := timeCalls(100*time.Millisecond, 1, func(int) error { return g.run() })
		if err != nil {
			return fmt.Errorf("gate-level %s probe: %w", g.name, err)
		}
		m.values["gatesim.run_ms."+g.name] = float64(d.Nanoseconds()) / 1e6
	}
	return nil
}
