// Command ustrace records, summarizes and converts pipeline event
// traces of the Ultrascalar simulators — the per-station, per-cycle view
// the aggregate statistics cannot show.
//
// Usage:
//
//	ustrace record [-arch hybrid] [-n 64] [-c C] [-kernel fib | prog.s | -]
//	               [-format jsonl|chrome] [-o trace.jsonl]
//	               [-cap 1048576] [-ring] [-metrics m.json] [-metrics-every 256]
//	ustrace summary trace.jsonl
//	ustrace convert trace.jsonl -o trace.json
//
// A chrome-format trace (or the output of convert) loads directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing: execution stations
// appear as tracks, instructions as slices spanning issue to
// completion, squashes as instant markers. The JSONL form is compact,
// diff-able, and byte-deterministic for a given program and
// configuration; summary digests it into IPC-over-time, an occupancy
// heat strip, operand locality and squash storms.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ultrascalar"
	"ultrascalar/internal/core"
	"ultrascalar/internal/exp"
	"ultrascalar/internal/obs"
	"ultrascalar/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "summary":
		err = cmdSummary(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "ustrace: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ustrace:", err)
		if errors.Is(err, context.DeadlineExceeded) {
			os.Exit(3) // distinct code: killed by -timeout, not broken
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  ustrace record  [flags] (-kernel name | prog.s | -)   record a traced run
  ustrace summary trace.jsonl                           digest a recorded trace
  ustrace convert trace.jsonl -o trace.json             JSONL -> Chrome trace JSON
run "ustrace record -h" for recording flags; named kernels: `+kernelNames()+"\n")
}

// namedKernels returns the workload suite addressable via -kernel.
func namedKernels() []workload.Workload {
	ws := workload.Kernels()
	ws = append(ws, workload.Figure3Sequence(), workload.RepeatedScan(64, 50))
	return ws
}

func kernelNames() string {
	var names []string
	for _, w := range namedKernels() {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("ustrace record", flag.ContinueOnError)
	arch := fs.String("arch", "hybrid", "processor: ultra1, ultra2, hybrid")
	n := fs.Int("n", 64, "window size / issue width")
	c := fs.Int("c", 0, "hybrid cluster size (default min(32, n))")
	regs := fs.Int("regs", 32, "logical registers L")
	kernel := fs.String("kernel", "", "record a named kernel instead of assembling a source file")
	format := fs.String("format", "jsonl", "output format: jsonl or chrome")
	out := fs.String("o", "", "output file (default trace.jsonl / trace.json, - for stdout)")
	capacity := fs.Int("cap", 1<<20, "event slab capacity")
	ring := fs.Bool("ring", false, "flight-recorder mode: keep the LAST -cap events instead of the first")
	metricsOut := fs.String("metrics", "", "also write periodic engine metrics snapshots to this file")
	metricsEvery := fs.Int64("metrics-every", 256, "metrics snapshot period in cycles")
	timeout := fs.Duration("timeout", 0, "abort the recorded run after this long (0 = no limit); exit code 3 on deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Resolve the program.
	var prog []ultrascalar.Inst
	var mem *ultrascalar.Memory
	var progName string
	switch {
	case *kernel != "":
		if fs.NArg() != 0 {
			return fmt.Errorf("-kernel and a source file are mutually exclusive")
		}
		found := false
		for _, w := range namedKernels() {
			if w.Name == *kernel {
				prog, mem, progName, found = w.Prog, w.Mem(), w.Name, true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown kernel %q (have: %s)", *kernel, kernelNames())
		}
	case fs.NArg() == 1:
		src, err := readSource(fs.Arg(0))
		if err != nil {
			return err
		}
		p, err := ultrascalar.Assemble(src)
		if err != nil {
			return err
		}
		mem = ultrascalar.NewMemory()
		p.InitMem(mem)
		prog, progName = p.Insts, fs.Arg(0)
	default:
		return fmt.Errorf("need exactly one program: -kernel name, a source file, or - for stdin")
	}

	// Build the configuration.
	cluster := *c
	if cluster == 0 {
		cluster = min(32, *n)
	}
	cfg, err := exp.ArchConfig(*arch, *n, cluster)
	if err != nil {
		return fmt.Errorf("unknown architecture %q", *arch)
	}
	if *n < 1 || *n%cfg.Granularity != 0 {
		return fmt.Errorf("cluster size %d must divide window %d", cfg.Granularity, *n)
	}
	var tr *obs.Tracer
	if *ring {
		tr = obs.NewRingTracer(*capacity)
	} else {
		tr = obs.NewTracer(*capacity)
	}
	cfg.NumRegs, cfg.Tracer = *regs, tr
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
		cfg.MetricsEvery = *metricsEvery
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := core.RunCtx(ctx, prog, mem, cfg)
	if err != nil {
		return err
	}

	man := obs.NewManifest("ustrace")
	man.Config = fmt.Sprintf("arch=%s n=%d c=%d regs=%d prog=%s", *arch, *n, cfg.Granularity, *regs, progName)
	man.Prog = strings.Split(strings.TrimRight(ultrascalar.Disassemble(prog), "\n"), "\n")

	path := *out
	if path == "" {
		path = map[string]string{"jsonl": "trace.jsonl", "chrome": "trace.json"}[*format]
	}
	w, closeOut, err := openOut(path)
	if err != nil {
		return err
	}
	defer closeOut()
	switch *format {
	case "jsonl":
		err = obs.WriteJSONL(w, man, tr.Events())
	case "chrome":
		err = obs.WriteChromeTrace(w, man, tr.Events(), nil)
	default:
		return fmt.Errorf("unknown format %q (jsonl or chrome)", *format)
	}
	if err != nil {
		return err
	}
	if err := closeOut(); err != nil {
		return err
	}

	if reg != nil {
		mf, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		defer mf.Close()
		if err := reg.WriteJSON(mf, man); err != nil {
			return err
		}
	}

	s := res.Stats
	fmt.Fprintf(os.Stderr, "recorded %d events (%d offered, %d dropped) over %d cycles: IPC=%.3f retired=%d squashed=%d -> %s\n",
		tr.Len(), tr.Total(), tr.Dropped(), s.Cycles, s.IPC(), s.Retired, s.Squashed, path)
	return nil
}

func cmdSummary(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: ustrace summary trace.jsonl")
	}
	man, events, err := readTrace(args[0])
	if err != nil {
		return err
	}
	if man.Tool != "" {
		fmt.Printf("recorded by %s (%s, go %s, commit %s)\n", man.Tool, man.Config, man.GoVersion, man.GitCommit)
	}
	fmt.Print(obs.Summarize(events, 64))
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("ustrace convert", flag.ContinueOnError)
	out := fs.String("o", "trace.json", "output Chrome trace file (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: ustrace convert trace.jsonl -o trace.json")
	}
	// Allow flags after the positional (convert t.jsonl -o t.json).
	if err := fs.Parse(rest[1:]); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: ustrace convert trace.jsonl -o trace.json")
	}
	man, events, err := readTrace(rest[0])
	if err != nil {
		return err
	}
	w, closeOut, err := openOut(*out)
	if err != nil {
		return err
	}
	defer closeOut()
	if err := obs.WriteChromeTrace(w, man, events, nil); err != nil {
		return err
	}
	return closeOut()
}

// readTrace loads a JSONL trace from a file or stdin ("-").
func readTrace(path string) (obs.Manifest, []obs.Event, error) {
	if path == "-" {
		return obs.ReadJSONL(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return obs.Manifest{}, nil, err
	}
	defer f.Close()
	return obs.ReadJSONL(f)
}

// openOut opens path for writing ("-" = stdout). The returned close
// function is idempotent and never closes stdout.
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	closed := false
	return f, func() error {
		if closed {
			return nil
		}
		closed = true
		return f.Close()
	}, nil
}

func readSource(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
