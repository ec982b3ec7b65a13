package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ultrascalar/internal/core"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
	"ultrascalar/internal/workload"
)

// testCampaign is a small-but-real campaign: all three architectures,
// one kernel, three sites spanning value/protocol/starvation faults.
func testCampaign() FaultCampaignConfig {
	return FaultCampaignConfig{
		Seed:   1,
		Window: 8,
		N:      6,
		Sites: []fault.Site{
			fault.SiteResultBit, fault.SiteDropForward, fault.SiteReadyStuck0,
		},
		Detect:    fault.DetectGolden,
		Workloads: []workload.Workload{workload.Fib(8)},
	}
}

func renderReport(t *testing.T, rep *fault.Report) string {
	t.Helper()
	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestFaultCampaignGoldenReport pins the default usfault campaign
// (`usfault -seed 1 -n 16`) byte for byte under each detection model.
// The golden pin predates the fault-plan source replacement; the parity
// and none pins, where crash and runaway trials weigh most, predate
// campaign screening. Any change to the plan RNG stream, the engine
// under faults, the screen or the classifier shows up here. CI compares
// the usfault binary's output against the same files.
func TestFaultCampaignGoldenReport(t *testing.T) {
	for _, tc := range []struct {
		detect fault.Detect
		file   string
	}{
		{fault.DetectGolden, "usfault-seed1-n16.txt"},
		{fault.DetectParity, "usfault-seed1-n16-parity.txt"},
		{fault.DetectNone, "usfault-seed1-n16-none.txt"},
	} {
		t.Run(tc.detect.String(), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunFaultCampaign(FaultCampaignConfig{Seed: 1, Window: 16, N: 16, Detect: tc.detect})
			if err != nil {
				t.Fatal(err)
			}
			if got := renderReport(t, rep); got != string(want) {
				t.Fatalf("report drifted from testdata/%s\ngot:\n%s", tc.file, got)
			}
		})
	}
}

// TestFaultCampaignDeterministic: the same campaign configuration yields
// a byte-identical report whether the points run serially or fanned out
// across the worker pool — the acceptance contract for usfault.
func TestFaultCampaignDeterministic(t *testing.T) {
	cfg := testCampaign()

	prev := SetSweepWorkers(1)
	serialRep, err := RunFaultCampaign(cfg)
	if err != nil {
		SetSweepWorkers(prev)
		t.Fatalf("serial campaign: %v", err)
	}
	SetSweepWorkers(8)
	parallelRep, err := RunFaultCampaign(cfg)
	SetSweepWorkers(prev)
	if err != nil {
		t.Fatalf("parallel campaign: %v", err)
	}

	serial := renderReport(t, serialRep)
	parallel := renderReport(t, parallelRep)
	if serial != parallel {
		t.Errorf("parallel report diverges from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}

	// The campaign must have produced real work: every cell populated,
	// and with the golden checker on, detections recover rather than
	// corrupt or fail.
	if len(serialRep.Cells) != 3*1*3 {
		t.Fatalf("got %d cells, want %d", len(serialRep.Cells), 9)
	}
	detected := 0
	for _, c := range serialRep.Cells {
		if c.Points != cfg.N {
			t.Errorf("cell %s/%s has %d points, want %d", c.Arch, c.Site, c.Points, cfg.N)
		}
		if c.SDC != 0 || c.RecFailed != 0 {
			t.Errorf("cell %s/%s: sdc=%d recovery-failed=%d under golden detection",
				c.Arch, c.Site, c.SDC, c.RecFailed)
		}
		detected += c.Detected
	}
	if detected == 0 {
		t.Error("campaign detected no faults at all; injection is not reaching live state")
	}
}

// TestFaultCampaignCheckpointResume: interrupting a campaign and
// restarting it with the same checkpoint file skips the completed shards
// and still produces the byte-identical report.
func TestFaultCampaignCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cfg := testCampaign()

	full, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	want := renderReport(t, full)

	// First pass writes a checkpoint; simulate an interruption by
	// truncating the file to its header plus the first few shard lines.
	cfg.Checkpoint = filepath.Join(dir, "campaign.ckpt")
	if _, err := RunFaultCampaign(cfg); err != nil {
		t.Fatalf("checkpointed campaign: %v", err)
	}
	data, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 5 {
		t.Fatalf("checkpoint has %d lines, want header + 9 shards", len(lines))
	}
	kept := 4 // header + 3 completed shards
	if err := os.WriteFile(cfg.Checkpoint, []byte(strings.Join(lines[:kept], "")), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	if resumed.Resumed != kept-1 {
		t.Errorf("resumed %d shards, want %d", resumed.Resumed, kept-1)
	}
	// The resumed-shard count is invocation metadata; the campaign
	// results themselves must be byte-identical.
	resumed.Resumed = 0
	if got := renderReport(t, resumed); got != want {
		t.Errorf("resumed report diverges from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", want, got)
	}

	// The finished checkpoint now holds every shard; a fresh run against
	// it does no simulation work and reproduces the report again.
	cached, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatalf("fully-cached campaign: %v", err)
	}
	if cached.Resumed != cached.Shards {
		t.Errorf("cached run resumed %d of %d shards", cached.Resumed, cached.Shards)
	}
	cached.Resumed = 0
	if got := renderReport(t, cached); got != want {
		t.Error("fully-cached report diverges from uninterrupted run")
	}
}

// TestFaultCampaignCheckpointMismatch: a checkpoint written by a
// differently-configured campaign must be rejected, not silently mixed
// into the results.
func TestFaultCampaignCheckpointMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := testCampaign()
	cfg.Checkpoint = filepath.Join(dir, "campaign.ckpt")
	if _, err := RunFaultCampaign(cfg); err != nil {
		t.Fatalf("first campaign: %v", err)
	}
	cfg.Seed = 2
	if _, err := RunFaultCampaign(cfg); err == nil {
		t.Fatal("campaign with a different seed accepted a stale checkpoint")
	} else if !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("unexpected mismatch error: %v", err)
	}
}

// TestFaultCampaignValidation: bad configurations fail fast with clear
// errors instead of producing empty reports.
func TestFaultCampaignValidation(t *testing.T) {
	if _, err := RunFaultCampaign(FaultCampaignConfig{Window: 0, N: 1}); err == nil {
		t.Error("window 0 accepted")
	}
	if _, err := RunFaultCampaign(FaultCampaignConfig{Window: 8, N: 0}); err == nil {
		t.Error("n 0 accepted")
	}
	cfg := testCampaign()
	cfg.Archs = []string{"ultra3"}
	if _, err := RunFaultCampaign(cfg); err == nil {
		t.Error("unknown architecture accepted")
	}
}

// TestFaultCampaignProgressAndTelemetry: the Progress callback reports
// a monotonic shard count from (0, total) to (total, total), a
// context-carried logger and span recorder observe every shard under
// one trace ID, and none of it changes a byte of the report.
func TestFaultCampaignProgressAndTelemetry(t *testing.T) {
	cfg := testCampaign()
	plain, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	want := renderReport(t, plain)

	type call struct{ done, total int }
	var mu sync.Mutex
	var calls []call
	cfg.Progress = func(done, total int) {
		mu.Lock()
		calls = append(calls, call{done, total})
		mu.Unlock()
	}

	var logBuf bytes.Buffer
	lg := obslog.New(&logBuf, obslog.Options{Level: obslog.LevelDebug})
	rec := obslog.NewSpanRecorder(obslog.SpanOptions{})
	trace := obslog.DeriveTraceID("job-000042")
	ctx := obslog.WithLogger(obslog.WithRecorder(obslog.WithTraceID(context.Background(), trace), rec), lg)

	traced, err := RunFaultCampaignCtx(ctx, cfg)
	if err != nil {
		t.Fatalf("traced campaign: %v", err)
	}
	if got := renderReport(t, traced); got != want {
		t.Errorf("telemetry changed the report bytes:\n--- want ---\n%s--- got ---\n%s", want, got)
	}

	if len(calls) == 0 {
		t.Fatal("Progress never called")
	}
	total := calls[0].total
	if calls[0].done != 0 || total == 0 {
		t.Fatalf("first Progress call = %+v, want (0, total>0)", calls[0])
	}
	prev := -1
	for _, c := range calls {
		if c.total != total {
			t.Fatalf("Progress total changed mid-campaign: %+v", c)
		}
		if c.done <= prev {
			t.Fatalf("Progress not monotonic: %d after %d", c.done, prev)
		}
		prev = c.done
	}
	if last := calls[len(calls)-1]; last.done != total {
		t.Errorf("final Progress call = %+v, want done == total", last)
	}

	shardSpans := 0
	for _, ev := range rec.Events(trace) {
		if ev.Name == "shard" {
			shardSpans++
		}
	}
	if shardSpans != total {
		t.Errorf("%d shard spans on the trace, want %d", shardSpans, total)
	}
	for _, msg := range []string{"campaign start", "campaign done"} {
		if !strings.Contains(logBuf.String(), `"msg":"`+msg+`"`) {
			t.Errorf("log missing %q", msg)
		}
	}
	if !strings.Contains(logBuf.String(), `"trace":"`+string(trace)+`"`) {
		t.Error("log lines do not carry the campaign trace ID")
	}
}

// TestFaultCampaignCheckpointOversizedLine: a checkpoint whose shard
// record exceeds bufio.Scanner's default 64 KiB token cap must still
// load (JSON tolerates whitespace between tokens, so a record is
// inflated without changing its meaning). Before the shared big-buffer
// scanner this failed with "token too long" and a valid checkpoint
// became unreadable.
func TestFaultCampaignCheckpointOversizedLine(t *testing.T) {
	dir := t.TempDir()
	cfg := testCampaign()
	cfg.Checkpoint = filepath.Join(dir, "campaign.ckpt")
	full, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	want := renderReport(t, full)

	data, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("checkpoint has %d lines, want header + shards", len(lines))
	}
	// Inflate the first shard record past the default scanner cap.
	fat := strings.Replace(lines[1], `{"shard":`, `{`+strings.Repeat(" ", 96*1024)+`"shard":`, 1)
	if len(fat) <= 64*1024 {
		t.Fatalf("inflated line only %d bytes", len(fat))
	}
	lines[1] = fat
	if err := os.WriteFile(cfg.Checkpoint, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatalf("campaign with oversized checkpoint line: %v", err)
	}
	if resumed.Resumed != resumed.Shards {
		t.Errorf("resumed %d of %d shards; the oversized record was dropped instead of read",
			resumed.Resumed, resumed.Shards)
	}
	resumed.Resumed = 0
	if got := renderReport(t, resumed); got != want {
		t.Error("report after oversized-line resume diverges from reference")
	}
}

// TestScreenMatchesFullRun checks campaign screening against the real
// engine: over seeds {1, 5, -7} × detection {none, parity, golden} ×
// window {8, 16}, every trial of every architecture, workload and site
// runs in full, whether the screen kept it or not. A trial the screen
// rejects must be the clean run — nothing applied, no watchdog fire, no
// squash, no error, the clean run's cycle, retired and fetched counts —
// and a trial it keeps must land. Budget: 18,144 trials (N = 16, 4 with
// -short), about 2 s at GOMAXPROCS=1.
func TestScreenMatchesFullRun(t *testing.T) {
	n := 16
	if testing.Short() {
		n = 4
	}
	kept, rejected := 0, 0
	for _, seed := range []int64{1, 5, -7} {
		for _, detect := range []fault.Detect{fault.DetectNone, fault.DetectParity, fault.DetectGolden} {
			for _, window := range []int{8, 16} {
				cfg := FaultCampaignConfig{Seed: seed, Window: window, N: n, Detect: detect}
				for _, arch := range FaultArchs {
					ecfg, err := ArchConfig(arch, window, max(window/4, 1))
					if err != nil {
						t.Fatal(err)
					}
					for _, wl := range FaultWorkloads() {
						clean, err := core.Run(wl.Prog, wl.Mem(), ecfg)
						if err != nil {
							t.Fatal(err)
						}
						tcfg := trialConfig(ecfg, detect, clean)
						for _, site := range fault.AllSites() {
							sh := faultShard{arch: arch, wl: wl, site: site}
							faults := shardFaults(sh, cfg, tcfg, clean)
							landed, err := core.ScreenFaults(nil, wl.Prog, wl.Mem(), tcfg, faults)
							if err != nil {
								t.Fatalf("%s/%s seed %d: screen: %v", sh.key(), detect, seed, err)
							}
							for i, fl := range faults {
								res, log, err := runTrial(nil, wl, tcfg, fl)
								where := func() string {
									return fmt.Sprintf("%s/%s seed %d window %d trial %d: %+v",
										sh.key(), detect, seed, window, i, fl)
								}
								if landed[i] {
									kept++
									if log.Applied < 1 {
										t.Fatalf("%s: screen kept a fault that never landed", where())
									}
									continue
								}
								rejected++
								switch {
								case err != nil:
									t.Fatalf("%s: screened out, yet the run failed: %v", where(), err)
								case log.Applied != 0 || log.WatchdogFires != 0 || log.SquashedStations != 0:
									t.Fatalf("%s: screened out, yet the run logged %+v", where(), log)
								case res.Stats.Cycles != clean.Stats.Cycles || res.Stats.Retired != clean.Stats.Retired ||
									res.Stats.Fetched != clean.Stats.Fetched:
									t.Fatalf("%s: screened out, yet cycles/retired/fetched = %d/%d/%d, clean %d/%d/%d",
										where(), res.Stats.Cycles, res.Stats.Retired, res.Stats.Fetched,
										clean.Stats.Cycles, clean.Stats.Retired, clean.Stats.Fetched)
								}
							}
						}
					}
				}
			}
		}
	}
	if kept == 0 || rejected == 0 {
		t.Fatalf("screen kept %d and rejected %d trials; the grid must exercise both", kept, rejected)
	}
}

// TestCampaignRunsOnlyLandedTrials guards the screen against being
// switched off silently, which every byte-identity gate would miss: the
// sweep pool must run exactly the trials whose fault lands — every
// point the report does not call vacuous — and not all N per shard.
func TestCampaignRunsOnlyLandedTrials(t *testing.T) {
	reg := obs.NewRegistry()
	SetPoolMetrics(reg)
	defer SetPoolMetrics(nil)
	cfg := testCampaign()
	rep, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	landed, total := 0, 0
	for _, c := range rep.Cells {
		landed += c.Points - c.Vacuous
		total += c.Points
	}
	if landed == total {
		t.Fatalf("every one of %d trials landed; the campaign cannot tell a screened run from an unscreened one", total)
	}
	if got := reg.Histogram("exp.task_ms", nil).Count(); got != int64(landed) {
		t.Fatalf("pool ran %d trials, want the %d landed ones (of %d)", got, landed, total)
	}
}
