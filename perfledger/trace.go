package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
)

// A traced run measures every layer, whichever workload it is run for:
// it runs each workload's traced phase (short, except the named
// workload's own), times the probes, and takes a CPU profile of the
// named workload's phase only. It also runs that phase untraced first,
// through the same driver with no recorder and no profile; the
// difference between the two is the tracing overhead. Spans go to
// <trace dir>/spans.trace.json as Chrome trace JSON.

// target is the end-to-end metric, and the workload, a layer metric
// should move; workload "each" means the workload the run profiled.
type target struct{ metric, workload string }

var layerTargets = []struct {
	prefix string
	target
}{
	{"core.ns_per_cycle.", target{"throughput_per_s", "sim_kernels"}},
	{"core.allocs_per_cycle", target{"throughput_per_s", "sim_kernels"}},
	{"core.setup_us.", target{"throughput_per_s", "fault_campaign"}},
	{"fault.newplan_us", target{"throughput_per_s", "fault_campaign"}},
	{"ref.run_us", target{"throughput_per_s", "fault_campaign"}},
	{"campaign.shard_ms.", target{"throughput_per_s", "fault_campaign"}},
	{"exp.pool.", target{"throughput_per_s", "fault_campaign"}},
	{"exp.section_s.", target{"op_ms", "repro"}},
	{"gatesim.run_ms.", target{"op_ms", "repro"}},
	{"serve.max_rate_ok", target{"throughput_per_s", "serve_mix"}},
	{"serve.capacity_per_s", target{"throughput_per_s", "serve_mix"}},
	{"serve.", target{"op_ms", "serve_mix"}},
	{"load.", target{"op_ms", "serve_mix"}},
	{"self.", target{"op_ms", "each"}},
	{"trace_overhead_pct", target{"op_ms", "each"}},
}

// layerTarget looks up a layer metric's target: the first listed
// prefix that matches (specific prefixes come before general ones).
func layerTarget(name string) (target, bool) {
	for _, lt := range layerTargets {
		if strings.HasPrefix(name, lt.prefix) {
			return lt.target, true
		}
	}
	return target{}, false
}

// withProfile runs f under a CPU profile written to path ("" = none).
func withProfile(path string, f func() error) error {
	if path == "" {
		return f()
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return err
	}
	ferr := f()
	pprof.StopCPUProfile()
	if err := file.Close(); err != nil && ferr == nil {
		ferr = err
	}
	return ferr
}

func runTraced(ctx context.Context, e *env, name string) (*measurement, error) {
	if err := os.MkdirAll(e.traceDir, 0o755); err != nil {
		return nil, err
	}
	rec := obslog.NewSpanRecorder(obslog.SpanOptions{Cap: 1 << 18})
	m := newMeasurement()
	profile := filepath.Join(e.traceDir, "cpu.pprof")
	var plainMs, tracedMs float64
	for _, p := range []struct {
		name  string
		short time.Duration
		run   func(context.Context, *env, time.Duration, *obslog.SpanRecorder, string, *measurement) (float64, error)
	}{
		{"sim_kernels", time.Second, simLayers},
		{"fault_campaign", time.Second, campaignLayers},
		{"serve_mix", 4 * time.Second, serveLayers},
	} {
		var err error
		if p.name != name {
			_, err = p.run(ctx, e, p.short, rec, "", m)
		} else if plainMs, err = p.run(ctx, e, e.dur/4, nil, "", m); err == nil {
			// The named workload: untraced for a quarter of the run, then
			// traced and profiled for half.
			tracedMs, err = p.run(ctx, e, e.dur/2, rec, profile, m)
		}
		if err != nil {
			return nil, fmt.Errorf("%s phase: %w", p.name, err)
		}
	}

	// The repro phase runs the sections in this process once, traced.
	// When repro is the named workload their text must equal the usrepro
	// binary's, and they first run untraced twice: once to fill the vlsi
	// model memo, which the traced run would otherwise find filled by its
	// baseline, and once as that baseline.
	var want, reproProfile string
	if name == "repro" {
		text, _, _, err := reproProcess(ctx, e, "-nmax", fmt.Sprint(reproNMax))
		m.op(err)
		if err != nil {
			return nil, err
		}
		want, reproProfile = text, profile
		for i := 0; i < 2; i++ {
			total, err := reproLayers(nil, want, m)
			if err != nil {
				return nil, fmt.Errorf("repro phase: %w", err)
			}
			plainMs = total * 1e3
		}
	}
	if err := withProfile(reproProfile, func() error {
		total, err := reproLayers(rec, want, m)
		if name == "repro" {
			tracedMs = total * 1e3
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("repro phase: %w", err)
	}

	if err := probeLayers(ctx, rec, m); err != nil {
		return nil, err
	}
	m.values["trace_overhead_pct"] = 100 * (tracedMs - plainMs) / plainMs

	shares, err := foldProfile(profile)
	if err != nil {
		return nil, err
	}
	for b, s := range shares {
		m.values["self."+b] = s
	}
	top, share := largestBucket(shares)
	fmt.Fprintf(os.Stderr, "perfledger: %s: largest self-time bucket %s (%.1f%%); %s\n",
		name, top, share, formatShares(shares))

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, ""); err != nil {
		return nil, err
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		return nil, fmt.Errorf("span trace: %w", err)
	}
	path := filepath.Join(e.traceDir, "spans.trace.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfledger: %s: spans in %s (%d dropped), CPU profile in %s\n",
		name, path, rec.Dropped(), profile)
	return m, nil
}
