package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ultrascalar/internal/core"
	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
)

// syncBuffer is a goroutine-safe log sink for tests.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func counterValue(reg *obs.Registry, name string) int64 {
	return reg.Peek(0).Counters[name]
}

// TestBreakerTransitionMetrics walks one class through the full breaker
// lifecycle — closed → open → (cooldown) → half-open probe → closed —
// and asserts every transition through counter deltas while concurrent
// submissions hammer the open breaker (the -race exercise).
func TestBreakerTransitionMetrics(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	reg := obs.NewRegistry()
	var logBuf syncBuffer
	lg := obslog.New(&logBuf, obslog.Options{Level: obslog.LevelDebug})
	livelock := true
	m := newTestManager(t, Config{
		Workers: 1, BreakerThreshold: 2, BreakerCooldown: 30 * time.Second,
		Clock: clock, Metrics: reg, Log: lg,
	})
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		if livelock {
			return "", fmt.Errorf("run: %w", core.ErrLivelock)
		}
		return "ok", nil
	}

	req := JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"}
	class := configClass(req)
	transitions := func(to string) int64 {
		return counterValue(reg, obs.LabeledName("serve.breaker_transitions",
			obs.Label{Key: "class", Value: class}, obs.Label{Key: "to", Value: to}))
	}
	stateGauge := func() float64 {
		return reg.Peek(0).Gauges[obs.LabeledName("serve.breaker_state",
			obs.Label{Key: "class", Value: class})]
	}

	for i := 0; i < 2; i++ {
		job, serr := m.Submit(req)
		if serr != nil {
			t.Fatalf("Submit %d: %v", i, serr)
		}
		waitState(t, m, job.ID, StateFailed)
	}
	if got := transitions(BreakerOpen); got != 1 {
		t.Fatalf("transitions to open = %d, want 1", got)
	}
	if got := stateGauge(); got != 2 {
		t.Fatalf("breaker state gauge = %v, want 2 (open)", got)
	}
	if got := m.BreakerStates()[class]; got != BreakerOpen {
		t.Fatalf("BreakerStates[%s] = %q, want open", class, got)
	}

	// Concurrent submissions against the open breaker: all rejected,
	// no transition events, no data races.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, serr := m.Submit(req); serr == nil || serr.Kind != KindBreakerOpen {
					t.Errorf("open breaker admitted a job: %v", serr)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := transitions(BreakerOpen); got != 1 {
		t.Fatalf("rejections moved the transition counter: %d", got)
	}

	// Cooldown over: exactly one probe admitted (open → half-open).
	advance(31 * time.Second)
	livelock = false
	probe, serr := m.Submit(req)
	if serr != nil {
		t.Fatalf("probe rejected: %v", serr)
	}
	if got := transitions(BreakerHalfOpen); got != 1 {
		t.Fatalf("transitions to half-open = %d, want 1", got)
	}
	if got := stateGauge(); got != 1 {
		t.Fatalf("breaker state gauge = %v, want 1 (half-open)", got)
	}

	// The probe's success closes the breaker.
	waitState(t, m, probe.ID, StateDone)
	if got := transitions(BreakerClosed); got != 1 {
		t.Fatalf("transitions to closed = %d, want 1", got)
	}
	if got := stateGauge(); got != 0 {
		t.Fatalf("breaker state gauge = %v, want 0 (closed)", got)
	}
	if _, open := m.BreakerStates()[class]; open {
		t.Error("closed class still listed in BreakerStates")
	}
	if !strings.Contains(logBuf.String(), `"msg":"breaker transition"`) {
		t.Error("breaker transitions not logged")
	}
}

// TestCampaignJobTelemetry runs a real campaign job with full telemetry
// and checks the tentpole contract: one trace ID across the job record,
// every log line, every span, and a Perfetto-loadable trace file.
func TestCampaignJobTelemetry(t *testing.T) {
	var logBuf syncBuffer
	lg := obslog.New(&logBuf, obslog.Options{Level: obslog.LevelDebug})
	rec := obslog.NewSpanRecorder(obslog.SpanOptions{Logger: lg})
	reg := obs.NewRegistry()
	traceDir := t.TempDir()
	m := newTestManager(t, Config{
		Workers: 1, Metrics: reg, Log: lg, Spans: rec, TraceDir: traceDir,
	})

	job, serr := m.Submit(JobRequest{Kind: "campaign", Window: 4, Trials: 1})
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	wantTrace := string(obslog.DeriveTraceID(job.ID))
	if job.Trace != wantTrace {
		t.Fatalf("job trace = %q, want %q", job.Trace, wantTrace)
	}
	waitState(t, m, job.ID, StateDone)

	// Progress reached completion.
	prog, serr := m.Progress(job.ID)
	if serr != nil {
		t.Fatalf("Progress: %v", serr)
	}
	if prog.ShardsTotal == 0 || prog.ShardsDone != prog.ShardsTotal {
		t.Errorf("progress = %d/%d, want complete", prog.ShardsDone, prog.ShardsTotal)
	}

	// One trace ID across all the job's spans: queue, run, per-shard
	// work and checkpoints all carry it.
	events := rec.Events(obslog.TraceID(wantTrace))
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Name]++
	}
	for _, want := range []string{"queue", "run", "shard", "checkpoint"} {
		if kinds[want] == 0 {
			t.Errorf("no %q span on the job trace (have %v)", want, kinds)
		}
	}
	if kinds["shard"] != prog.ShardsTotal {
		t.Errorf("shard spans = %d, want %d", kinds["shard"], prog.ShardsTotal)
	}

	// The log tells the same story under the same trace ID, and no
	// line of this job's lifecycle carries a different one.
	logText := logBuf.String()
	for _, msg := range []string{"job submitted", "job start", "campaign start", "campaign done", "job done"} {
		if !strings.Contains(logText, `"msg":"`+msg+`"`) {
			t.Errorf("log missing %q event", msg)
		}
	}
	traced := 0
	sc := bufio.NewScanner(strings.NewReader(logText))
	for sc.Scan() {
		var line struct {
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("unparseable log line %q: %v", sc.Text(), err)
		}
		if line.Trace != "" && line.Trace != wantTrace {
			t.Errorf("log line carries foreign trace %q: %s", line.Trace, sc.Text())
		}
		if line.Trace == wantTrace {
			traced++
		}
	}
	if traced < 5 {
		t.Errorf("only %d log lines carry the job trace", traced)
	}

	// The exported lifecycle trace is Perfetto-loadable. The export
	// runs after the job turns terminal (outside the manager lock), so
	// give the file a moment to land.
	tracePath := filepath.Join(traceDir, job.ID+".trace.json")
	var data []byte
	var err error
	for deadline := time.Now().Add(10 * time.Second); ; {
		data, err = os.ReadFile(tracePath)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace file: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Errorf("exported job trace invalid: %v", err)
	}
	if !strings.Contains(string(data), wantTrace) {
		t.Error("trace file does not mention the job's trace ID")
	}
}

// TestReportsByteIdenticalWithTelemetry runs the same jobs with
// telemetry fully on and fully off: the reports must not differ by one
// byte — telemetry is a side channel, never an input.
func TestReportsByteIdenticalWithTelemetry(t *testing.T) {
	run := func(telemetry bool) map[string]string {
		cfg := Config{Workers: 1}
		if telemetry {
			var logBuf syncBuffer
			lg := obslog.New(&logBuf, obslog.Options{Level: obslog.LevelDebug})
			cfg.Log = lg
			cfg.Spans = obslog.NewSpanRecorder(obslog.SpanOptions{Logger: lg})
			cfg.Metrics = obs.NewRegistry()
			cfg.TraceDir = t.TempDir()
		}
		m := newTestManager(t, cfg)
		reports := map[string]string{}
		for _, req := range []JobRequest{
			{Kind: "sim", Arch: "hybrid", Window: 8, Workload: "fib"},
			{Kind: "campaign", Window: 4, Trials: 1, Seed: 7},
		} {
			job, serr := m.Submit(req)
			if serr != nil {
				t.Fatalf("Submit: %v", serr)
			}
			done := waitState(t, m, job.ID, StateDone)
			reports[req.Kind] = done.Report
		}
		return reports
	}
	on := run(true)
	off := run(false)
	for kind, rep := range off {
		if on[kind] != rep {
			t.Errorf("%s report differs with telemetry on:\n--- off ---\n%s\n--- on ---\n%s", kind, rep, on[kind])
		}
	}
}

// TestHTTPPrometheusAndProgress exercises the new HTTP surface: the
// Prometheus exposition validates against the checked-in schema and the
// progress endpoint reports shard counts both as a one-shot JSON
// object and as an NDJSON stream that terminates with the job.
func TestHTTPPrometheusAndProgress(t *testing.T) {
	reg := obs.NewRegistry()
	m, srv := newTestServer(t, Config{Workers: 1, Metrics: reg})

	job, serr := m.Submit(JobRequest{Kind: "campaign", Window: 4, Trials: 1})
	if serr != nil {
		t.Fatal(serr)
	}

	// Stream progress while the job runs; the stream must end on its
	// own once the job is terminal, with the last line complete.
	resp, err := http.Get(srv.URL + "/jobs/" + job.ID + "/progress?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	var last Progress
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines++
	}
	resp.Body.Close()
	if lines < 2 {
		t.Errorf("stream produced %d lines, want progress updates", lines)
	}
	if last.State != StateDone || last.ShardsDone != last.ShardsTotal || last.ShardsTotal == 0 {
		t.Errorf("final stream line = %+v, want done with full shards", last)
	}
	if last.Trace != string(obslog.DeriveTraceID(job.ID)) {
		t.Errorf("progress trace = %q", last.Trace)
	}

	// One-shot progress after completion.
	resp, err = http.Get(srv.URL + "/jobs/" + job.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var once Progress
	if err := json.NewDecoder(resp.Body).Decode(&once); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if once != last {
		t.Errorf("one-shot progress %+v != final stream line %+v", once, last)
	}

	// Unknown job → 404.
	resp, err = http.Get(srv.URL + "/jobs/job-424242/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown job progress = %d, want 404", resp.StatusCode)
	}

	// The Prometheus exposition validates and carries the route
	// metrics the requests above just generated.
	resp, err = http.Get(srv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if _, err := prom.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("prom content type = %q", ct)
	}
	if err := obs.ValidatePrometheus(prom.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, prom.String())
	}
	for _, want := range []string{
		"# TYPE serve_http_ms histogram",
		"# TYPE serve_http_requests counter",
		`serve_http_requests{route="GET /jobs/{id}/progress",code="200"}`,
		"# TYPE serve_queue_depth gauge",
		"# TYPE serve_persist_ms histogram",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, prom.String())
		}
	}
	if n := len(reg.Snapshots()); n != 0 {
		t.Errorf("prom scrape appended %d snapshots", n)
	}
	// One journal append each for submit, start and finish.
	if n := reg.Histogram("serve.persist_ms", nil).Count(); n != 3 {
		t.Errorf("serve.persist_ms observed %d appends, want 3", n)
	}
}

// TestHTTPPprofGated: the pprof surface exists only when enabled.
func TestHTTPPprofGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Error("pprof reachable without EnablePprof")
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof index = %d with EnablePprof, want 200", resp.StatusCode)
	}
}
