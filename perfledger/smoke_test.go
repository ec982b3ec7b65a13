package main

import (
	"context"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ultrascalar/internal/obs"
	"ultrascalar/internal/serve"
)

// Each driver runs one unit against the real layers and must report no
// failed operation.

func requireClean(t *testing.T, m *measurement) {
	t.Helper()
	if m.attempted == 0 || m.failed != 0 {
		t.Fatalf("%d attempted, %d failed: %v", m.attempted, m.failed, m.problems)
	}
}

func TestSimUnit(t *testing.T) {
	ctx := context.Background()
	m := newMeasurement()
	cases, want, setups, err := simSetup(ctx, 7, m)
	if err != nil {
		t.Fatal(err)
	}
	engine, retired := simUnit(ctx, cases, want, m, newSimTally(), nil)
	requireClean(t, m)
	if len(setups) != 3 || engine <= 0 || retired <= 0 {
		t.Fatalf("setups %v, engine %v, retired %d", setups, engine, retired)
	}
	// A changed cycle count is a failure.
	want[cases[0].key()]++
	simUnit(ctx, cases[:1], want, m, newSimTally(), nil)
	if m.failed != 1 {
		t.Errorf("a cycle count that did not repeat was not counted as a failure")
	}
}

func TestCampaignUnit(t *testing.T) {
	ctx := context.Background()
	m := newMeasurement()
	r := &campaignRunner{seed: 3, reports: map[int64]string{}, m: m}
	if _, err := r.unit(ctx, 0); err != nil {
		t.Fatal(err)
	}
	r.checkSerial(ctx)
	requireClean(t, m)
	if !strings.Contains(r.reports[3], "seed") {
		t.Errorf("report does not look like a campaign report:\n%s", r.reports[3])
	}
}

func TestServeUnit(t *testing.T) {
	ctx := context.Background()
	mgr, err := serve.New(serve.Config{Dir: t.TempDir(), Workers: serveWorkers, QueueCap: serveQueue, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()
	defer mgr.Drain(ctx)
	steps := []step{{rate: 100, dur: 300 * time.Millisecond}, {rate: 200, dur: 200 * time.Millisecond}}
	offsets, _ := schedule(steps)
	l := &loadRun{base: srv.URL, plan: buildPlan(5, len(offsets)), steps: steps}
	if err := l.run(ctx, wallClock{}); err != nil {
		t.Fatal(err)
	}
	m := newMeasurement()
	l.check(ctx, m)
	requireClean(t, m)
	if m.attempted != 70 || len(l.backlog) != 3 {
		t.Errorf("%d requests checked, %d backlog samples; want 70 and 3", m.attempted, len(l.backlog))
	}
	if p50 := median(l.stepLatencies(0, "")); p50 <= 0 || p50 > 1000 {
		t.Errorf("p50 latency %v ms", p50)
	}
	// A sim report whose numbers differ from a direct run fails the check.
	for i := range l.results {
		if l.plan[i].class == "sim" {
			l.results[i].report = strings.Replace(l.results[i].report, "cycles=", "cycles=1", 1)
			break
		}
	}
	m = newMeasurement()
	l.check(ctx, m)
	if m.failed != 1 {
		t.Errorf("a wrong sim report gave %d failures, want 1", m.failed)
	}
}

func TestReproSetup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds usrepro")
	}
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", filepath.Join(dir, "usrepro"), "ultrascalar/cmd/usrepro").CombinedOutput()
	if err != nil {
		t.Fatalf("building usrepro: %v\n%s", err, out)
	}
	e := &env{bin: dir}
	setups, err := reproSetup(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(setups) != 9 || median(setups) <= 0 {
		t.Errorf("set-up times %v", setups)
	}
	if got := stripTiming("a\nreproduced all experiments in 4.2s\n"); got != "a\n" {
		t.Errorf("stripTiming left %q", got)
	}
}
