// Command perfledger is the repository's benchmark: it measures what
// users of this repository pay in host time for four things they run —
// simulator runs (sim_kernels), fault campaigns (fault_campaign), the
// paper reproduction (repro) and jobs on the HTTP service (serve_mix) —
// and checks that every output it times is correct.
//
//	perfledger -workload NAME -seed S -seconds T -trace 0|1 [-out FILE]
//	perfledger agree A.jsonl B.jsonl
//
// An untraced run (-trace 0) prints the end-to-end metrics listed in
// BENCHMARK.json; a traced run (-trace 1) prints the per-layer metrics,
// writes Chrome trace spans and CPU profiles, and folds the profile into
// per-package self-time shares. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With -out
// the same result is appended, with its workload and seed, to a JSONL
// file that `perfledger agree` compares against another set.
//
// run.sh builds this program and the binaries it drives (usrepro,
// usfault, usserve) from the checkout and then runs it; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

const (
	// runTimeout bounds one workload's run.
	runTimeout = 170 * time.Second
	// specFile is the metric list and bounds, read from the directory the
	// benchmark runs in: the repository root.
	specFile = "BENCHMARK.json"
)

// workloads maps each workload name to its untraced driver.
var workloads = map[string]func(context.Context, *env) (*measurement, error){
	"sim_kernels":    runSimKernels,
	"fault_campaign": runFaultCampaign,
	"repro":          runRepro,
	"serve_mix":      runServeMix,
}

// env is what every driver needs to know about its run.
type env struct {
	seed     int64
	dur      time.Duration
	bin      string // holds the usrepro, usfault and usserve binaries
	work     string // per-run scratch directory, removed when the run ends
	traceDir string // traced runs leave spans and profiles here
}

// measurement is what one run produced: operations attempted and
// failed (an error or a failed correctness check), and metric values
// by name.
type measurement struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newMeasurement() *measurement { return &measurement{values: map[string]float64{}} }

// op counts one operation and, when err is non-nil, its failure.
func (m *measurement) op(err error) {
	m.attempted++
	if err != nil {
		m.failed++
		if len(m.problems) < 8 {
			m.problems = append(m.problems, err.Error())
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line every run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as appended to an -out file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		os.Exit(agreeMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("perfledger", flag.ExitOnError)
	name := fs.String("workload", "", "sim_kernels, fault_campaign, repro, serve_mix, or all")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "length of the measured phase in seconds (0 = run_seconds of the spec)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and CPU profiles")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the usrepro, usfault and usserve binaries")
	work := fs.String("work", ".bench_build/work", "scratch directory for server state and profiles")
	out := fs.String("out", "", "append this run's result, with workload and seed, to this JSONL file")
	fs.Parse(os.Args[1:])

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "perfledger:", err)
		os.Exit(1)
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		fail(err)
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *seconds < 0 || *seconds > maxPhaseSeconds {
		fail(fmt.Errorf("-seconds must be in (0, %d]", maxPhaseSeconds))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if workloads[n] == nil || !sp.hasWorkload(n) {
			fail(fmt.Errorf("unknown workload %q", n))
		}
	}

	var lines []record
	for _, n := range names {
		e := &env{
			seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
			bin:      *bin,
			work:     filepath.Join(*work, fmt.Sprintf("%s-%d-%d", n, *seed, os.Getpid())),
			traceDir: filepath.Join(*work, "trace", n),
		}
		// Every run must end within three minutes; the deadline stops the
		// engine, the children and the load if something hangs.
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		res, err := runOne(ctx, sp, n, e, *trace == 1)
		cancel()
		if err != nil {
			fail(fmt.Errorf("%s: %w", n, err))
		}
		lines = append(lines, record{Workload: n, Seed: *seed, Trace: *trace == 1, Result: res})
	}
	if *out != "" {
		if err := appendRecords(*out, lines); err != nil {
			fail(err)
		}
	}
	final := lines[0].Result
	if len(lines) > 1 {
		final = combine(lines)
	}
	b, err := json.Marshal(final)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// runOne runs one workload, traced or not, and shapes its result to the
// metric list of BENCHMARK.json.
func runOne(ctx context.Context, sp *spec, name string, e *env, traced bool) (result, error) {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(e.work)
	var m *measurement
	var err error
	if traced {
		m, err = runTraced(ctx, e, name)
	} else {
		m, err = workloads[name](ctx, e)
	}
	if err != nil {
		return result{}, err
	}
	for _, p := range m.problems {
		fmt.Fprintf(os.Stderr, "perfledger: %s: FAILED: %s\n", name, p)
	}
	if m.attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	want := map[string]string{}
	if traced {
		for _, lm := range sp.PerLayer {
			want[lm.Name] = lm.Unit
		}
	} else {
		for _, em := range sp.EndToEnd {
			want[em.Name] = em.Unit
		}
	}
	var missing, extra []string
	for n, unit := range want {
		v, ok := m.values[n]
		switch {
		case !ok:
			missing = append(missing, n)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return result{}, fmt.Errorf("metric %s is %v", n, v)
		default:
			res.Metrics[n] = metricValue{Value: v, Unit: unit}
		}
	}
	for n := range m.values {
		if _, ok := want[n]; !ok {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return result{}, fmt.Errorf("measured metrics differ from BENCHMARK.json: missing %v, not listed %v",
			missing, extra)
	}
	printMetrics(name, res, traced)
	return res, nil
}

// printMetrics writes the human-readable table to standard error; for
// a traced run it names the end-to-end metric each layer metric moves.
func printMetrics(name string, res result, traced bool) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "perfledger: %s: %d attempted, %d failed\n", name, res.Attempted, res.Failed)
	for _, k := range keys {
		mv := res.Metrics[k]
		line := fmt.Sprintf("  %-34s %14.6g %s", k, mv.Value, mv.Unit)
		if t, ok := layerTarget(k); ok && traced {
			line += fmt.Sprintf("   -> %s on %s", t.metric, t.workload)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// combine merges the results of -workload all into one line, metric
// names prefixed with their workload.
func combine(lines []record) result {
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, l := range lines {
		out.Correct = out.Correct && l.Result.Correct
		out.Attempted += l.Result.Attempted
		out.Failed += l.Result.Failed
		for k, v := range l.Result.Metrics {
			out.Metrics[l.Workload+"/"+k] = v
		}
	}
	return out
}

func appendRecords(path string, recs []record) error {
	var b []byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b = append(append(b, line...), '\n')
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB reads a process's high-water resident set size (VmHWM)
// from /proc; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM in %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
