package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ultrascalar/internal/core"
	"ultrascalar/internal/exp"
	obslog "ultrascalar/internal/obs/log"
	"ultrascalar/internal/ref"
	"ultrascalar/internal/workload"
)

// sim_kernels: one unit runs the kernel suite plus a seeded MixedILP
// and PointerChase on the three machines at n = 256 (the hybrid with
// clusters of 32), and RepeatedScan on the Ultrascalar I as the
// steady-state case. This is the unfaulted wakeup-link fast path that
// usim, ustrace, the IPC sweeps and serve sim jobs use; no fault hooks
// run, so it is the control for changes aimed at campaigns or set-up.

const simWindow = 256

var simArchs = []struct {
	name    string
	cluster int
}{{"ultra1", 0}, {"hybrid", 32}, {"ultra2", 0}}

// simCase is one (machine, program) run of the unit with the golden
// architectural state it must reach.
type simCase struct {
	arch   string // ultra1, hybrid, ultra2, or steady (RepeatedScan on ultra1)
	w      workload.Workload
	cfg    core.Config
	golden *ref.Result
}

func (c simCase) key() string { return c.arch + "/" + c.w.Name }

// simSuite generates the unit's programs from the seed and runs each
// through the reference interpreter once.
func simSuite(seed int64) ([]simCase, error) {
	progs := append(workload.Kernels(),
		workload.MixedILP(4000, 32, 256, seed), workload.PointerChase(512, seed))
	goldens := make([]*ref.Result, len(progs))
	for i, w := range progs {
		g, err := ref.Run(w.Prog, w.Mem(), ref.Config{})
		if err != nil {
			return nil, fmt.Errorf("golden run of %s: %w", w.Name, err)
		}
		goldens[i] = g
	}
	var cases []simCase
	for _, a := range simArchs {
		cfg, err := exp.ArchConfig(a.name, simWindow, a.cluster)
		if err != nil {
			return nil, err
		}
		for i, w := range progs {
			cases = append(cases, simCase{arch: a.name, w: w, cfg: cfg, golden: goldens[i]})
		}
	}
	steady := workload.RepeatedScan(64, 50)
	g, err := ref.Run(steady.Prog, steady.Mem(), ref.Config{})
	if err != nil {
		return nil, fmt.Errorf("golden run of %s: %w", steady.Name, err)
	}
	cfg, _ := exp.ArchConfig("ultra1", simWindow, 0)
	return append(cases, simCase{arch: "steady", w: steady, cfg: cfg, golden: g}), nil
}

// simTally accumulates engine time and cycles per machine across units.
type simTally struct {
	ns     map[string]int64 // engine nanoseconds by arch
	cycles map[string]int64 // simulated cycles by arch
}

func newSimTally() *simTally {
	return &simTally{ns: map[string]int64{}, cycles: map[string]int64{}}
}

// simUnit runs every case once, checks it, and returns the engine time
// and instructions retired. want holds each case's cycle count from the
// first unit; a later unit must repeat it exactly.
func simUnit(ctx context.Context, cases []simCase, want map[string]int64, m *measurement,
	tally *simTally, rec *obslog.SpanRecorder) (time.Duration, int64) {
	var engine time.Duration
	var retired int64
	for _, c := range cases {
		mem := c.w.Mem()
		sp := rec.Start("sim_kernels", "core.RunCtx", c.key())
		t0 := time.Now()
		res, err := core.RunCtx(ctx, c.w.Prog, mem, c.cfg)
		d := time.Since(t0)
		sp.End()
		if err == nil {
			err = checkSim(c, res, want)
		}
		m.op(err)
		if err != nil {
			continue
		}
		engine += d
		retired += res.Stats.Retired
		tally.ns[c.arch] += d.Nanoseconds()
		tally.cycles[c.arch] += res.Stats.Cycles
	}
	return engine, retired
}

// checkSim compares one run with the reference interpreter and with the
// cycle count the same case produced before.
func checkSim(c simCase, res *core.Result, want map[string]int64) error {
	if res.Stats.Retired != int64(c.golden.Executed) {
		return fmt.Errorf("%s: retired %d, reference executed %d", c.key(), res.Stats.Retired, c.golden.Executed)
	}
	for r := range c.golden.Regs {
		if res.Regs[r] != c.golden.Regs[r] {
			return fmt.Errorf("%s: r%d = %d, reference %d", c.key(), r, res.Regs[r], c.golden.Regs[r])
		}
	}
	if !res.Mem.Equal(c.golden.Mem) {
		return fmt.Errorf("%s: memory differs from the reference", c.key())
	}
	if w, ok := want[c.key()]; !ok {
		want[c.key()] = res.Stats.Cycles
	} else if w != res.Stats.Cycles {
		return fmt.Errorf("%s: %d cycles, an earlier run took %d", c.key(), res.Stats.Cycles, w)
	}
	return nil
}

// simSetup generates the suite and runs the warm-up unit; it repeats
// that three times and returns the last suite, its cycle counts and the
// set-up times.
func simSetup(ctx context.Context, seed int64, m *measurement) ([]simCase, map[string]int64, []float64, error) {
	var setups []float64
	var cases []simCase
	var want map[string]int64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var err error
		if cases, err = simSuite(seed); err != nil {
			return nil, nil, nil, err
		}
		want = map[string]int64{}
		simUnit(ctx, cases, want, m, newSimTally(), nil)
		setups = append(setups, time.Since(t0).Seconds())
	}
	return cases, want, setups, nil
}

// simPhase runs units for d and returns per-unit engine times (ms) and
// retirement rates (instructions per engine second).
func simPhase(ctx context.Context, cases []simCase, want map[string]int64, d time.Duration,
	m *measurement, tally *simTally, rec *obslog.SpanRecorder) (ms, rates []float64) {
	start := time.Now()
	for ctx.Err() == nil && (time.Since(start) < d || len(ms) == 0) {
		engine, retired := simUnit(ctx, cases, want, m, tally, rec)
		if engine > 0 {
			ms = append(ms, float64(engine.Nanoseconds())/1e6)
			rates = append(rates, float64(retired)/engine.Seconds())
		}
	}
	return ms, rates
}

func runSimKernels(ctx context.Context, e *env) (*measurement, error) {
	m := newMeasurement()
	cases, want, setups, err := simSetup(ctx, e.seed, m)
	if err != nil {
		return nil, err
	}
	ms, rates := simPhase(ctx, cases, want, e.dur, m, newSimTally(), nil)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	m.values["setup_s"] = median(setups)
	m.values["op_ms"] = median(ms)
	m.values["throughput_per_s"] = median(rates)
	m.values["peak_rss_mb"] = rss
	return m, nil
}

// simLayers runs the sim phase traced (and profiled, when profile is
// set) and derives the engine's layer metrics: ns per simulated cycle
// for each machine and for the steady state, and heap allocations per
// cycle. With rec nil and no profile it is the untraced phase. It
// returns the median unit time.
func simLayers(ctx context.Context, e *env, d time.Duration, rec *obslog.SpanRecorder, profile string, m *measurement) (float64, error) {
	cases, want, _, err := simSetup(ctx, e.seed, m)
	if err != nil {
		return 0, err
	}
	tally := newSimTally()
	var ms []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	err = withProfile(profile, func() error {
		ms, _ = simPhase(ctx, cases, want, d, m, tally, rec)
		return nil
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return 0, err
	}
	var cycles int64
	for arch, ns := range tally.ns {
		m.values["core.ns_per_cycle."+arch] = float64(ns) / float64(tally.cycles[arch])
		cycles += tally.cycles[arch]
	}
	m.values["core.allocs_per_cycle"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(cycles)
	return median(ms), nil
}
