// Command usrepro regenerates the paper's entire evaluation in one run:
// every figure and table (E1-E18), printed as a single report. This is the
// one-command reproduction entry point; see EXPERIMENTS.md for the
// paper-versus-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ultrascalar/internal/exp"
	"ultrascalar/internal/profiling"
	"ultrascalar/internal/vlsi"
)

func main() {
	nMax := flag.Int("nmax", 4096, "largest station count in the sweeps (power of 4)")
	workers := flag.Int("workers", 0, "experiment sweep goroutines (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()
	stopProfiling, err := profiling.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "usrepro:", err)
		os.Exit(1)
	}
	defer stopProfiling()
	exp.SetSweepWorkers(*workers)
	t := vlsi.Tech035()
	start := time.Now() //uslint:allow detorder -- progress timing only; measured results are cycle counts

	section := func(id, title string) {
		fmt.Printf("\n================ %s — %s ================\n\n", id, title)
	}
	emit := func(rep string, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "usrepro:", err)
			os.Exit(1)
		}
		fmt.Print(rep)
	}

	fmt.Println("Reproduction of: A Comparison of Scalable Superscalar Processors")
	fmt.Println("(Kuszmaul, Henry, Loh — SPAA 1999)")

	section("E1", "Figure 3 timing diagram")
	emit(exp.Figure3Report())
	section("E2", "Figure 11 complexity table")
	emit(exp.Figure11Report(32, 32, 64, *nMax, t))
	section("E3", "Figure 12 empirical layouts")
	emit(exp.Figure12Report(t))
	section("E4", "X(n) recurrence cases")
	emit(exp.UltraIRecurrenceReport(32, 32, 64, *nMax, t))
	section("E5", "Ultrascalar II implementations")
	emit(exp.Ultra2ScalingReport(32, 32, 64, 1024, t))
	section("E6", "optimal cluster size")
	emit(exp.ClusterSweepReport(4096, 32, t))
	section("E7", "three-dimensional packaging")
	emit(exp.ThreeDReport(32, []int{256, 1024, 4096}), nil)
	section("E8", "IPC of the three processors")
	emit(exp.IPCReport(16, 4))
	section("E9", "operand locality")
	emit(exp.LocalityReport(64))
	section("E10", "netlist depths")
	emit(exp.CircuitDepthsReport(8, 8, 128), nil)
	section("E11", "end-to-end runtime")
	emit(exp.EndToEndReport(32, 32, []int{64, 256, 1024}, t))
	emit(exp.CrossoverReport(32, 32, []int{64, 256, 1024, 4096}, t))
	section("E12", "shared ALUs")
	emit(exp.SharedALUsReport(128))
	section("E13", "self-timed forwarding")
	emit(exp.SelfTimedReport(32))
	section("E14", "memory renaming")
	emit(exp.MemRenamingReport(16))
	section("E15", "fetch mechanisms")
	emit(exp.FetchModelsReport(64))
	section("E16", "the large-L regime")
	emit(exp.LargeLReport(t))
	section("E17", "distributed cluster caches")
	emit(exp.ClusterCachesReport(16, 4))
	section("E18", "gate-level validation")
	emit(exp.GateLevelReport(4))
	section("E19", "technology scaling")
	emit(exp.TechScalingReport())
	section("E20", "return-address stack ablation")
	emit(exp.ReturnStackReport(32))

	// The wall time goes to stderr, so stdout is a pure function of the
	// code and diffs cleanly against docs/reproduction-report.txt.
	fmt.Println()
	fmt.Fprintf(os.Stderr, "reproduced all experiments in %.1fs\n", time.Since(start).Seconds())
}
