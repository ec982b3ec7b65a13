// Command usbench measures the simulation hot path and the experiment
// sweeps and writes the results as machine-readable JSON (default
// BENCH_engine.json), so the performance trajectory is tracked across
// changes: nanoseconds and heap allocations per simulated cycle for each
// architecture on the kernel suite, the steady-state figures on a long
// loop workload, and the serial-versus-parallel sweep wall-clock.
//
// With -compare OLD.json it additionally acts as a regression gate:
// every section's ns/cycle is checked against the old report and the
// process exits 1 when any section slowed down by more than -tolerance
// (relative). With -metrics FILE it records the experiment worker-pool
// metrics (task latency histogram, queue depth, utilization) gathered
// during the sweep benchmark.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ultrascalar/internal/core"
	"ultrascalar/internal/exp"
	"ultrascalar/internal/obs"
	"ultrascalar/internal/profiling"
	"ultrascalar/internal/vlsi"
	"ultrascalar/internal/workload"
)

// EngineResult is the hot-path measurement for one configuration.
type EngineResult struct {
	Name           string  `json:"name"`
	Window         int     `json:"window"`
	Granularity    int     `json:"granularity"`
	GOMAXPROCS     int     `json:"gomaxprocs,omitempty"`
	Cycles         int64   `json:"simulated_cycles"`
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
}

// SweepResult compares serial and parallel experiment-sweep wall-clock.
// The task-latency quantiles come from the worker-pool histogram
// (present only when -metrics gathered one).
type SweepResult struct {
	Workers    int     `json:"workers"`
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	TaskP50Ms  float64 `json:"task_p50_ms,omitempty"`
	TaskP90Ms  float64 `json:"task_p90_ms,omitempty"`
	TaskP99Ms  float64 `json:"task_p99_ms,omitempty"`
}

// Report is the written JSON document.
type Report struct {
	Date        string         `json:"date"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Manifest    *obs.Manifest  `json:"manifest,omitempty"`
	Engine      []EngineResult `json:"engine"`
	SteadyState EngineResult   `json:"steady_state"`
	Sweep       SweepResult    `json:"sweep"`
}

// benchEngine runs the kernel suite repeatedly at the given configuration
// for roughly the given duration and reports per-cycle cost, bounded by
// ctx (the -timeout flag).
func benchEngine(ctx context.Context, name string, cfg core.Config, ws []workload.Workload, d time.Duration) (EngineResult, error) {
	var cycles int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now() //uslint:allow detorder -- wall-clock benchmarking is this tool's purpose
	iters := 0
	for time.Since(start) < d {
		w := ws[iters%len(ws)]
		res, err := core.RunCtx(ctx, w.Prog, w.Mem(), cfg)
		if err != nil {
			return EngineResult{}, fmt.Errorf("%s on %s: %w", w.Name, name, err)
		}
		cycles += res.Stats.Cycles
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return EngineResult{
		Name: name, Window: cfg.Window, Granularity: cfg.Granularity,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Cycles:         cycles,
		NsPerCycle:     float64(elapsed.Nanoseconds()) / float64(cycles),
		AllocsPerCycle: float64(ms1.Mallocs-ms0.Mallocs) / float64(cycles),
	}, nil
}

// benchSweep times one full experiment-sweep workload (the IPC table plus
// the Figure 11 fits) at the given worker count.
func benchSweep(workers int) (time.Duration, error) {
	prev := exp.SetSweepWorkers(workers)
	defer exp.SetSweepWorkers(prev)
	t := vlsi.Tech035()
	start := time.Now() //uslint:allow detorder -- wall-clock benchmarking is this tool's purpose
	if _, err := exp.IPC(64, 16); err != nil {
		return 0, err
	}
	if _, err := exp.Figure11(32, 32, 64, 1024, t); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// compare checks every section of the new report against the old one and
// returns the list of regressions: sections whose ns/cycle grew by more
// than tol (relative). Sections absent from the old report, or with a
// non-positive old value, are skipped — a new benchmark cannot regress.
func compare(old, new Report, tol float64) []string {
	var regressions []string
	check := func(section string, oldNs, newNs float64) {
		if oldNs <= 0 {
			return
		}
		ratio := newNs/oldNs - 1
		status := "ok"
		if ratio > tol {
			status = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.2f -> %.2f ns/cycle (%+.1f%% > %.0f%% tolerance)",
					section, oldNs, newNs, 100*ratio, 100*tol))
		}
		fmt.Printf("  %-24s %8.2f -> %8.2f ns/cycle  %+6.1f%%  %s\n",
			section, oldNs, newNs, 100*ratio, status)
	}
	oldEngine := make(map[string]EngineResult, len(old.Engine))
	for _, r := range old.Engine {
		oldEngine[r.Name] = r
	}
	for _, r := range new.Engine {
		if o, ok := oldEngine[r.Name]; ok {
			check(r.Name, o.NsPerCycle, r.NsPerCycle)
		}
	}
	check("steady_state", old.SteadyState.NsPerCycle, new.SteadyState.NsPerCycle)
	if new.Sweep.TaskP50Ms > 0 {
		fmt.Printf("  %-24s P50 %.2f  P90 %.2f  P99 %.2f ms (informational)\n",
			"sweep task latency", new.Sweep.TaskP50Ms, new.Sweep.TaskP90Ms, new.Sweep.TaskP99Ms)
	}
	return regressions
}

func main() {
	out := flag.String("o", "BENCH_engine.json", "output file (- for stdout)")
	dur := flag.Duration("d", 2*time.Second, "measurement duration per engine configuration")
	comparePath := flag.String("compare", "", "old report to gate against; exit 1 on ns/cycle regression")
	tolerance := flag.Float64("tolerance", 0.25, "relative ns/cycle growth allowed by -compare")
	metricsOut := flag.String("metrics", "", "write worker-pool metrics snapshots from the sweep benchmark to this file")
	timeout := flag.Duration("timeout", 0, "abort the whole benchmark after this long (0 = no limit); exit code 3 on deadline")
	flag.Parse()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
		// Bound the sweep benchmarks too: the pool stops claiming points
		// once the deadline passes.
		exp.SetSweepContext(ctx)
		defer exp.SetSweepContext(nil)
	}
	stopProfiling, err := profiling.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProfiling()

	// Load the baseline before any measuring (and before -o possibly
	// overwrites the same file), and fail fast on a bad path.
	var old Report
	if *comparePath != "" {
		oldBytes, err := os.ReadFile(*comparePath)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(oldBytes, &old); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *comparePath, err))
		}
	}

	man := obs.NewManifest("usbench")
	man.Config = fmt.Sprintf("d=%s", *dur)
	rep := Report{
		Date:       time.Now().UTC().Format("2006-01-02"), //uslint:allow detorder -- report date stamp, not a measured result
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Manifest:   &man,
	}

	var poolReg *obs.Registry
	if *metricsOut != "" {
		poolReg = obs.NewRegistry()
		exp.SetPoolMetrics(poolReg)
		defer exp.SetPoolMetrics(nil)
	}

	ws := workload.Kernels()
	for _, arch := range []string{"ultra1", "hybrid", "ultra2"} {
		cfg, err := exp.ArchConfig(arch, 256, 32)
		if err != nil {
			fatal(err)
		}
		r, err := benchEngine(ctx, arch, cfg, ws, *dur)
		if err != nil {
			fatal(err)
		}
		rep.Engine = append(rep.Engine, r)
	}
	steady, err := benchEngine(ctx, "ultra1/repeated-scan",
		core.Config{Window: 256, Granularity: 1},
		[]workload.Workload{workload.RepeatedScan(64, 50)}, *dur)
	if err != nil {
		fatal(err)
	}
	rep.SteadyState = steady

	// Warm the model memo the same way for both timings, then measure.
	if _, err := benchSweep(1); err != nil {
		fatal(err)
	}
	serial, err := benchSweep(1)
	if err != nil {
		fatal(err)
	}
	parallel, err := benchSweep(0)
	if err != nil {
		fatal(err)
	}
	rep.Sweep = SweepResult{
		Workers:    exp.SweepWorkers(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SerialMs:   float64(serial.Microseconds()) / 1e3,
		ParallelMs: float64(parallel.Microseconds()) / 1e3,
		Speedup:    float64(serial) / float64(parallel),
	}
	if poolReg != nil {
		if hv, ok := poolReg.Peek(0).Histograms["exp.task_ms"]; ok && hv.Count > 0 {
			rep.Sweep.TaskP50Ms = hv.Quantile(0.50)
			rep.Sweep.TaskP90Ms = hv.Quantile(0.90)
			rep.Sweep.TaskP99Ms = hv.Quantile(0.99)
		}
	}

	if poolReg != nil {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := poolReg.WriteJSON(f, man); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsOut)
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if *out == "-" {
		os.Stdout.Write(b)
	} else {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	if *comparePath != "" {
		fmt.Printf("comparing against %s (recorded %s, %s):\n", *comparePath, old.Date, old.GoVersion)
		regressions := compare(old, rep, *tolerance)
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "usbench: %d section(s) regressed beyond %.0f%%:\n", len(regressions), 100**tolerance)
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			os.Exit(1)
		}
		fmt.Println("no regressions beyond tolerance")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "usbench:", err)
	if errors.Is(err, context.DeadlineExceeded) {
		os.Exit(3) // distinct code: killed by -timeout, not broken
	}
	os.Exit(1)
}
