package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ultrascalar/internal/exp"
	obslog "ultrascalar/internal/obs/log"
	"ultrascalar/internal/vlsi"
)

// repro: repeated runs of the real `usrepro -nmax 256` binary, each a
// fresh process, so the vlsi model memo starts cold as it does for a
// reader. E18's gate-level netlist evaluation dominates it and the
// engine is a small share, so an engine-only change should not move it.
// usrepro takes no input, so the seed changes nothing here.

const reproNMax = 256

// section is one experiment of usrepro, in usrepro's order, with the
// arguments usrepro passes at -nmax 256. TestSectionsMatchUsrepro checks
// this list against cmd/usrepro/main.go.
type section struct {
	id, title string
	run       func(t vlsi.Tech) (string, error)
}

var sections = []section{
	{"E1", "Figure 3 timing diagram", func(vlsi.Tech) (string, error) { return exp.Figure3Report() }},
	{"E2", "Figure 11 complexity table", func(t vlsi.Tech) (string, error) { return exp.Figure11Report(32, 32, 64, reproNMax, t) }},
	{"E3", "Figure 12 empirical layouts", func(t vlsi.Tech) (string, error) { return exp.Figure12Report(t) }},
	{"E4", "X(n) recurrence cases", func(t vlsi.Tech) (string, error) { return exp.UltraIRecurrenceReport(32, 32, 64, reproNMax, t) }},
	{"E5", "Ultrascalar II implementations", func(t vlsi.Tech) (string, error) { return exp.Ultra2ScalingReport(32, 32, 64, 1024, t) }},
	{"E6", "optimal cluster size", func(t vlsi.Tech) (string, error) { return exp.ClusterSweepReport(4096, 32, t) }},
	{"E7", "three-dimensional packaging", func(vlsi.Tech) (string, error) { return exp.ThreeDReport(32, []int{256, 1024, 4096}), nil }},
	{"E8", "IPC of the three processors", func(vlsi.Tech) (string, error) { return exp.IPCReport(16, 4) }},
	{"E9", "operand locality", func(vlsi.Tech) (string, error) { return exp.LocalityReport(64) }},
	{"E10", "netlist depths", func(vlsi.Tech) (string, error) { return exp.CircuitDepthsReport(8, 8, 128), nil }},
	{"E11", "end-to-end runtime", func(t vlsi.Tech) (string, error) {
		a, err := exp.EndToEndReport(32, 32, []int{64, 256, 1024}, t)
		if err != nil {
			return "", err
		}
		b, err := exp.CrossoverReport(32, 32, []int{64, 256, 1024, 4096}, t)
		return a + b, err
	}},
	{"E12", "shared ALUs", func(vlsi.Tech) (string, error) { return exp.SharedALUsReport(128) }},
	{"E13", "self-timed forwarding", func(vlsi.Tech) (string, error) { return exp.SelfTimedReport(32) }},
	{"E14", "memory renaming", func(vlsi.Tech) (string, error) { return exp.MemRenamingReport(16) }},
	{"E15", "fetch mechanisms", func(vlsi.Tech) (string, error) { return exp.FetchModelsReport(64) }},
	{"E16", "the large-L regime", func(t vlsi.Tech) (string, error) { return exp.LargeLReport(t) }},
	{"E17", "distributed cluster caches", func(vlsi.Tech) (string, error) { return exp.ClusterCachesReport(16, 4) }},
	{"E18", "gate-level validation", func(vlsi.Tech) (string, error) { return exp.GateLevelReport(4) }},
	{"E19", "technology scaling", func(vlsi.Tech) (string, error) { return exp.TechScalingReport() }},
	{"E20", "return-address stack ablation", func(vlsi.Tech) (string, error) { return exp.ReturnStackReport(32) }},
}

const reproHeader = "Reproduction of: A Comparison of Scalable Superscalar Processors\n(Kuszmaul, Henry, Loh — SPAA 1999)\n"

// stripTiming drops usrepro's closing wall-time line, the one part of
// its output that is not a function of the code.
func stripTiming(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "reproduced all experiments in ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// runSections runs every section in this process, as usrepro does, and
// returns usrepro's text (without the timing line) and each section's
// time in seconds.
func runSections(rec *obslog.SpanRecorder) (string, map[string]float64, error) {
	t := vlsi.Tech035()
	times := map[string]float64{}
	var b strings.Builder
	b.WriteString(reproHeader)
	for _, s := range sections {
		fmt.Fprintf(&b, "\n================ %s — %s ================\n\n", s.id, s.title)
		sp := rec.Start("repro", "exp.section", s.id)
		t0 := time.Now()
		text, err := s.run(t)
		times[s.id] = time.Since(t0).Seconds()
		sp.End()
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", s.id, err)
		}
		b.WriteString(text)
	}
	b.WriteString("\n")
	return b.String(), times, nil
}

// reproProcess runs the usrepro binary once and returns its output
// without the timing line, its wall time and its peak RSS (MB).
func reproProcess(ctx context.Context, e *env, args ...string) (string, time.Duration, float64, error) {
	out, d, rss, err := runChild(ctx, e, "usrepro", args...)
	return stripTiming(out), d, rss, err
}

// reproSetup times the start of a usrepro process: -h parses the flags
// after every package initializer has run, then exits. It is repeated
// nine times, since one start takes about a millisecond.
func reproSetup(ctx context.Context, e *env) ([]float64, error) {
	var setups []float64
	for i := 0; i < 9; i++ {
		_, d, _, err := reproProcess(ctx, e, "-h")
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return setups, nil
}

// reproRuns runs usrepro until d has passed (at least twice) and checks
// that every run prints the same text as the first. It returns the wall
// times (ms) and peak RSS (MB) of the runs, and the reference text.
func reproRuns(ctx context.Context, e *env, d time.Duration, m *measurement) (ms, rss []float64, first string) {
	start := time.Now()
	for ctx.Err() == nil && (time.Since(start) < d || len(ms) < 2) {
		text, wall, mb, err := reproProcess(ctx, e, "-nmax", fmt.Sprint(reproNMax))
		if err == nil && first != "" && text != first {
			err = fmt.Errorf("usrepro output differs from its first run")
		}
		m.op(err)
		if err != nil {
			if time.Since(start) > d {
				break
			}
			continue
		}
		if first == "" {
			first = text
		}
		ms = append(ms, float64(wall.Nanoseconds())/1e6)
		rss = append(rss, mb)
	}
	return ms, rss, first
}

func runRepro(ctx context.Context, e *env) (*measurement, error) {
	m := newMeasurement()
	setups, err := reproSetup(ctx, e)
	if err != nil {
		return nil, err
	}
	ms, rss, _ := reproRuns(ctx, e, e.dur, m)
	if len(ms) == 0 {
		return nil, fmt.Errorf("no usrepro run succeeded: %v", m.problems)
	}
	m.values["setup_s"] = median(setups)
	m.values["op_ms"] = median(ms)
	// Sections reproduced per second of wall time.
	m.values["throughput_per_s"] = float64(len(sections)) / (median(ms) / 1e3)
	m.values["peak_rss_mb"] = median(rss)
	return m, nil
}

// reproLayers runs the sections in this process with a span each. When
// want is not empty (the usrepro binary's text), the in-process text
// must equal it.
func reproLayers(rec *obslog.SpanRecorder, want string, m *measurement) (float64, error) {
	t0 := time.Now()
	text, times, err := runSections(rec)
	if err != nil {
		return 0, err
	}
	total := time.Since(t0).Seconds()
	if want != "" && text != want {
		err = fmt.Errorf("in-process sections print different text from the usrepro binary")
	}
	m.op(err)
	for id, s := range times {
		m.values["exp.section_s."+id] = s
	}
	return total, nil
}
