package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ultrascalar/internal/atomicio"
	"ultrascalar/internal/obs"
)

// --- delay-controller unit tests (pure state machine, synthetic time) ---

func TestAdmitStateEscalatesPerIntervalAndResets(t *testing.T) {
	a := admitState{target: 50 * time.Millisecond, interval: 100 * time.Millisecond}
	t0 := time.Unix(1_000_000, 0)

	// Below target: nothing sheds.
	a.observe(10*time.Millisecond, t0)
	if a.level != 0 || a.sheds(classSim) {
		t.Fatalf("below target: level=%d", a.level)
	}
	// A burst above target gets a full interval of grace.
	a.observe(80*time.Millisecond, t0)
	a.observe(80*time.Millisecond, t0.Add(50*time.Millisecond))
	if a.level != 0 {
		t.Fatalf("within grace interval: level=%d, want 0", a.level)
	}
	// One full interval continuously above target: shed sims only.
	a.observe(80*time.Millisecond, t0.Add(110*time.Millisecond))
	if a.level != 1 || !a.sheds(classSim) || a.sheds(classSweep) || a.sheds(classCampaign) {
		t.Fatalf("after one interval: level=%d", a.level)
	}
	// Two intervals: sweeps shed too; campaigns never.
	a.observe(200*time.Millisecond, t0.Add(220*time.Millisecond))
	if a.level != 2 || !a.sheds(classSweep) || a.sheds(classCampaign) {
		t.Fatalf("after two intervals: level=%d", a.level)
	}
	// Level is capped below the campaign class no matter how long the
	// overload lasts.
	a.observe(5*time.Second, t0.Add(10*time.Second))
	if a.level != maxShedLevel || a.sheds(classCampaign) {
		t.Fatalf("cap: level=%d, campaign shed=%v", a.level, a.sheds(classCampaign))
	}
	// One observation back under target ends the episode completely.
	a.observe(5*time.Millisecond, t0.Add(11*time.Second))
	if a.level != 0 || a.sheds(classSim) {
		t.Fatalf("after recovery: level=%d", a.level)
	}
}

func TestAdmitStateDisabled(t *testing.T) {
	a := admitState{target: time.Millisecond, interval: time.Millisecond, disabled: true}
	t0 := time.Unix(1_000_000, 0)
	a.observe(time.Hour, t0)
	a.observe(time.Hour, t0.Add(time.Hour))
	if a.sheds(classSim) {
		t.Fatal("disabled controller shed a job")
	}
}

// --- manager-level: class-ordered shedding under a stalled pool ---

// TestAdaptiveAdmissionShedsByClass drives a manager with a blocked
// worker pool and a fake clock: as queue delay stays above target,
// sims are shed first, then sweeps, and campaigns are still admitted
// until the hard QueueCap; once the backlog drains, sims are admitted
// again immediately.
func TestAdaptiveAdmissionShedsByClass(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	release := make(chan struct{})
	m := newTestManager(t, Config{
		QueueCap: 10, Workers: 1,
		AdmitTarget: 50 * time.Millisecond, AdmitInterval: 100 * time.Millisecond,
		Clock: clock, Metrics: obs.NewRegistry(),
	})
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		select {
		case <-release:
			return "ok\n", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}

	sim := JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"}
	sweep := JobRequest{Kind: "sweep", Window: 4}
	campaign := JobRequest{Kind: "campaign", Window: 4, Trials: 1}

	mustSubmit := func(req JobRequest, what string) *Job {
		t.Helper()
		job, serr := m.Submit(req)
		if serr != nil {
			t.Fatalf("%s rejected: %v", what, serr)
		}
		return job
	}
	mustShed := func(req JobRequest, what string) {
		t.Helper()
		_, serr := m.Submit(req)
		if serr == nil || serr.Kind != KindShed {
			t.Fatalf("%s: got %v, want shed", what, serr)
		}
		if serr.RetryAfter < time.Second {
			t.Fatalf("%s: Retry-After %v, want >= 1s", what, serr.RetryAfter)
		}
	}

	first := mustSubmit(sim, "first sim") // claimed by the (blocking) worker
	// Wait for the claim: a worker that has not yet claimed when the
	// sweep and campaign arrive would claim the campaign (the highest
	// class) instead, and the head-of-line ages below would differ.
	waitState(t, m, first.ID, StateRunning)
	mustSubmit(sim, "queued sim") // sits at the head of the queue
	// Head-of-line age above target but within the grace interval:
	// still admitting.
	advance(60 * time.Millisecond)
	mustSubmit(sim, "sim within grace")
	// A full interval continuously above target: level 1, sims shed,
	// sweeps and campaigns still admitted.
	advance(150 * time.Millisecond)
	mustShed(sim, "sim at level 1")
	mustSubmit(sweep, "sweep at level 1")
	mustSubmit(campaign, "campaign at level 1")
	// Another interval: level 2, sweeps shed too; campaigns are never
	// delay-shed.
	advance(110 * time.Millisecond)
	mustShed(sim, "sim at level 2")
	mustShed(sweep, "sweep at level 2")
	mustSubmit(campaign, "campaign at level 2")

	reg := m.cfg.Metrics
	if v := reg.Counter(obs.LabeledName("serve.shed_class",
		obs.Label{Key: "class", Value: "sim"})).Value(); v != 2 {
		t.Fatalf("sim sheds = %d, want 2", v)
	}
	if v := reg.Counter(obs.LabeledName("serve.shed_class",
		obs.Label{Key: "class", Value: "sweep"})).Value(); v != 1 {
		t.Fatalf("sweep sheds = %d, want 1", v)
	}
	if v := reg.Counter(obs.LabeledName("serve.shed_class",
		obs.Label{Key: "class", Value: "campaign"})).Value(); v != 0 {
		t.Fatalf("campaign sheds = %d, want 0", v)
	}
	if lvl := reg.Gauge("serve.admit_level").Value(); lvl != 2 {
		t.Fatalf("admit_level = %v, want 2", lvl)
	}

	// Release the pool and let the backlog drain; with the queue empty
	// the next submit observes zero delay and the episode ends.
	close(release)
	for _, j := range m.List() {
		if j.State == StateQueued || j.State == StateRunning {
			waitState(t, m, j.ID, StateDone)
		}
	}
	recovered := mustSubmit(sim, "sim after recovery")
	waitState(t, m, recovered.ID, StateDone)
	if lvl := reg.Gauge("serve.admit_level").Value(); lvl != 0 {
		t.Fatalf("admit_level after recovery = %v, want 0", lvl)
	}
}

// TestCampaignsClaimedBeforeSims: with work of every class queued
// behind a stalled pool, the freed worker claims campaign, then sweep,
// then sim — the priority order the shed policy protects.
func TestCampaignsClaimedBeforeSims(t *testing.T) {
	var mu sync.Mutex
	var started []string
	release := make(chan struct{})
	block := true
	m := newTestManager(t, Config{QueueCap: 10, Workers: 1, AdmitTarget: -1})
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		mu.Lock()
		started = append(started, job.Request.Kind)
		blocked := block
		block = false // only the first job stalls the pool
		mu.Unlock()
		if blocked {
			select {
			case <-release:
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
		return "ok\n", nil
	}
	if _, serr := m.Submit(JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"}); serr != nil {
		t.Fatalf("stall job: %v", serr)
	}
	// Wait for the worker to claim the stall job so the rest queue up.
	deadline := time.Now().Add(5 * time.Second) //uslint:allow detorder -- test-side polling deadline, not simulated behavior
	for {
		mu.Lock()
		n := len(started)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) { //uslint:allow detorder -- test-side polling deadline
			t.Fatal("worker never claimed the stall job")
		}
		time.Sleep(time.Millisecond)
	}
	var last *Job
	for _, req := range []JobRequest{
		{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"},
		{Kind: "sweep", Window: 4},
		{Kind: "campaign", Window: 4, Trials: 1},
	} {
		job, serr := m.Submit(req)
		if serr != nil {
			t.Fatalf("submit %s: %v", req.Kind, serr)
		}
		last = job
	}
	close(release)
	for _, j := range m.List() {
		waitState(t, m, j.ID, StateDone)
	}
	_ = last
	mu.Lock()
	defer mu.Unlock()
	want := []string{"sim", "campaign", "sweep", "sim"}
	if fmt.Sprint(started) != fmt.Sprint(want) {
		t.Fatalf("claim order %v, want %v", started, want)
	}
}

// --- breaker half-open race (satellite; run under -race in CI) ---

// TestBreakerHalfOpenSingleProbeUnderRace: after the cooldown, N
// goroutines race to consume the half-open probe; exactly one may be
// admitted, the rest must see breaker-open.
func TestBreakerHalfOpenSingleProbeUnderRace(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	bs := newBreakerSet(1, 30*time.Second, clock)
	const class = "campaign/all/n=64"
	bs.report(class, false) // threshold 1: open immediately
	if serr := bs.allow(class); serr == nil || serr.Kind != KindBreakerOpen {
		t.Fatalf("open breaker admitted: %v", serr)
	}
	mu.Lock()
	now = now.Add(31 * time.Second) // past the cooldown: half-open
	mu.Unlock()

	const racers = 64
	var admitted int64
	var amu sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if serr := bs.allow(class); serr == nil {
				amu.Lock()
				admitted++
				amu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()
	if admitted != 1 {
		t.Fatalf("half-open admitted %d probes, want exactly 1", admitted)
	}
	// The probe's success closes the breaker for everyone.
	bs.report(class, true)
	for i := 0; i < 4; i++ {
		if serr := bs.allow(class); serr != nil {
			t.Fatalf("closed breaker rejected: %v", serr)
		}
	}
}

// --- resource exhaustion: typed, retryable, breaker-neutral ---

// TestResourceExhaustionRetryable: a campaign whose checkpoint writes
// hit injected ENOSPC fails with kind resource-exhausted and
// retryable=true, does not trip the class breaker, and succeeds when
// resubmitted after the disk recovers.
func TestResourceExhaustionRetryable(t *testing.T) {
	m := newTestManager(t, Config{
		Workers: 1, BreakerThreshold: 1, Metrics: obs.NewRegistry(),
	})
	req := JobRequest{
		Kind: "campaign", Window: 4, Trials: 1, Seed: 1,
		Archs: []string{"ultra1"}, Sites: []string{"result-bit"}, Workloads: []string{"fib"},
	}
	atomicio.SetFaults(atomicio.Faults{WriteENOSPCEvery: 1})
	t.Cleanup(func() { atomicio.SetFaults(atomicio.Faults{}) })
	job, serr := m.Submit(req)
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	failed := waitState(t, m, job.ID, StateFailed)
	if failed.ErrorKind != KindResource {
		t.Fatalf("error kind = %q (%s), want %q", failed.ErrorKind, failed.Error, KindResource)
	}
	if !failed.Retryable {
		t.Fatal("resource-exhausted job not marked retryable")
	}
	// Even at threshold 1, an environmental failure must not have
	// tripped the class breaker: the resubmit is admitted.
	atomicio.SetFaults(atomicio.Faults{})
	retry, serr := m.Submit(req)
	if serr != nil {
		t.Fatalf("resubmit after recovery rejected: %v", serr)
	}
	done := waitState(t, m, retry.ID, StateDone)
	if done.Report == "" || done.Retryable {
		t.Fatalf("recovered run: report empty=%v retryable=%v", done.Report == "", done.Retryable)
	}
	if v := m.cfg.Metrics.Counter("serve.persist_errors").Value(); v == 0 {
		t.Fatal("persist failures under ENOSPC were not counted")
	}
}
