package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ultrascalar/internal/core"
	"ultrascalar/internal/obs"
)

// newTestManager builds a manager in a temp dir with fast defaults and
// drains it on cleanup so no worker goroutines outlive the test.
func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Drain(ctx)
	})
	return m
}

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, m *Manager, id string, want ...string) *Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, serr := m.Get(id)
		if serr != nil {
			t.Fatalf("Get(%s): %v", id, serr)
		}
		for _, s := range want {
			if job.State == s {
				return job
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	job, _ := m.Get(id)
	t.Fatalf("job %s stuck in state %q, wanted one of %v", id, job.State, want)
	return nil
}

func TestSimJobRunsToDone(t *testing.T) {
	m := newTestManager(t, Config{})
	job, serr := m.Submit(JobRequest{Kind: "sim", Arch: "ultra1", Window: 8, Workload: "fib"})
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	if job.ID != "job-000001" || job.State != StateQueued {
		t.Fatalf("unexpected submit result: %+v", job)
	}
	done := waitState(t, m, job.ID, StateDone)
	if !strings.Contains(done.Report, "arch=ultra1 workload=fib window=8") {
		t.Errorf("report missing config echo:\n%s", done.Report)
	}
	if !strings.Contains(done.Report, "ipc=") {
		t.Errorf("report missing ipc:\n%s", done.Report)
	}
	// Deterministic: a second identical job yields a byte-identical report.
	job2, serr := m.Submit(JobRequest{Kind: "sim", Arch: "ultra1", Window: 8, Workload: "fib"})
	if serr != nil {
		t.Fatalf("Submit 2: %v", serr)
	}
	done2 := waitState(t, m, job2.ID, StateDone)
	if done2.Report != done.Report {
		t.Errorf("identical sim requests produced different reports:\n%s\nvs\n%s", done.Report, done2.Report)
	}
}

func TestInvalidConfigRejectedAtAdmission(t *testing.T) {
	m := newTestManager(t, Config{})
	cases := []JobRequest{
		{Kind: "sim", Arch: "ultra3", Window: 8},
		{Kind: "sim", Arch: "ultra1", Window: 0},
		{Kind: "sim", Arch: "ultra1", Window: 8, Workload: "nope"},
		{Kind: "warp", Window: 8},
		{Kind: "campaign", Window: 8, Trials: -1},
	}
	for _, req := range cases {
		if _, serr := m.Submit(req); serr == nil || serr.Kind != KindInvalidConfig || serr.Status != 400 {
			t.Errorf("request %+v: got %v, want invalid-config/400", req, serr)
		}
	}
	if len(m.List()) != 0 {
		t.Error("rejected requests must not create jobs")
	}
}

func TestQueueSheddingWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	block := make(chan struct{})
	m := newTestManager(t, Config{Workers: 1, QueueCap: 2, Metrics: reg})
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		select {
		case <-block:
			return "ok", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	// First job is claimed by the worker; the next two fill the queue.
	first, serr := m.Submit(JobRequest{Kind: "sweep", Window: 4})
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	waitState(t, m, first.ID, StateRunning)
	for i := 0; i < 2; i++ {
		if _, serr := m.Submit(JobRequest{Kind: "sweep", Window: 4}); serr != nil {
			t.Fatalf("Submit queued %d: %v", i, serr)
		}
	}
	_, serr = m.Submit(JobRequest{Kind: "sweep", Window: 4})
	if serr == nil || serr.Kind != KindShed || serr.Status != 503 || serr.RetryAfter <= 0 {
		t.Fatalf("expected shed/503 with Retry-After, got %v", serr)
	}
	snap := reg.Peek(0)
	if got := snap.Counters["serve.shed"]; got != 1 {
		t.Errorf("serve.shed = %d, want 1", got)
	}
	if got := snap.Gauges["serve.queue_depth"]; got != 2 {
		t.Errorf("serve.queue_depth = %v, want 2", got)
	}
	close(block)
}

func TestBreakerTripsCoolsAndProbes(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	livelock := true
	m := newTestManager(t, Config{
		Workers: 1, BreakerThreshold: 2, BreakerCooldown: 30 * time.Second, Clock: clock,
	})
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		if livelock {
			return "", fmt.Errorf("run: %w", core.ErrLivelock)
		}
		return "ok", nil
	}

	req := JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"}
	for i := 0; i < 2; i++ {
		job, serr := m.Submit(req)
		if serr != nil {
			t.Fatalf("Submit %d: %v", i, serr)
		}
		failed := waitState(t, m, job.ID, StateFailed)
		if failed.ErrorKind != KindLivelock {
			t.Fatalf("job %d error kind = %q, want livelock", i, failed.ErrorKind)
		}
	}
	// Two consecutive livelocks at threshold 2: the class is open.
	_, serr := m.Submit(req)
	if serr == nil || serr.Kind != KindBreakerOpen || serr.Status != 503 || serr.RetryAfter <= 0 {
		t.Fatalf("expected breaker-open/503 with Retry-After, got %v", serr)
	}
	// A different config class is unaffected.
	other, serr := m.Submit(JobRequest{Kind: "sim", Arch: "ultra2", Window: 4, Workload: "fib"})
	if serr != nil {
		t.Fatalf("healthy class rejected: %v", serr)
	}
	waitState(t, m, other.ID, StateFailed)

	// After the cooldown a single probe is admitted; its success closes
	// the breaker for good.
	advance(31 * time.Second)
	livelock = false
	probe, serr := m.Submit(req)
	if serr != nil {
		t.Fatalf("half-open probe rejected: %v", serr)
	}
	waitState(t, m, probe.ID, StateDone)
	healed, serr := m.Submit(req)
	if serr != nil {
		t.Fatalf("closed breaker rejected: %v", serr)
	}
	waitState(t, m, healed.ID, StateDone)
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	m := newTestManager(t, Config{
		Workers: 1, BreakerThreshold: 1, BreakerCooldown: 10 * time.Second, Clock: clock,
	})
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		return "", fmt.Errorf("run: %w", core.ErrLivelock)
	}
	req := JobRequest{Kind: "sim", Arch: "hybrid", Window: 4, Workload: "fib"}
	job, _ := m.Submit(req)
	waitState(t, m, job.ID, StateFailed)
	if _, serr := m.Submit(req); serr == nil || serr.Kind != KindBreakerOpen {
		t.Fatalf("expected open breaker, got %v", serr)
	}
	advance(11 * time.Second)
	probe, serr := m.Submit(req)
	if serr != nil {
		t.Fatalf("probe rejected: %v", serr)
	}
	waitState(t, m, probe.ID, StateFailed)
	// The failed probe re-opens the breaker for a fresh cooldown.
	if _, serr := m.Submit(req); serr == nil || serr.Kind != KindBreakerOpen {
		t.Fatalf("expected re-opened breaker, got %v", serr)
	}
}

func TestTimeoutClassifiesAsTimeout(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, DefaultTimeout: 20 * time.Millisecond})
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		<-ctx.Done()
		return "", &core.CanceledError{Cycle: 42, Err: ctx.Err()}
	}
	job, serr := m.Submit(JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"})
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	failed := waitState(t, m, job.ID, StateFailed)
	if failed.ErrorKind != KindTimeout {
		t.Errorf("error kind = %q, want timeout", failed.ErrorKind)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	block := make(chan struct{})
	m := newTestManager(t, Config{Workers: 1, QueueCap: 4})
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		select {
		case <-block:
			return "ok", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	running, _ := m.Submit(JobRequest{Kind: "sweep", Window: 4})
	waitState(t, m, running.ID, StateRunning)
	queued, _ := m.Submit(JobRequest{Kind: "sweep", Window: 4})

	got, serr := m.Cancel(queued.ID)
	if serr != nil || got.State != StateCanceled {
		t.Fatalf("cancel queued: %v %+v", serr, got)
	}
	if _, serr := m.Cancel(running.ID); serr != nil {
		t.Fatalf("cancel running: %v", serr)
	}
	canceled := waitState(t, m, running.ID, StateCanceled)
	if canceled.ErrorKind != KindCanceled {
		t.Errorf("running cancel kind = %q, want canceled", canceled.ErrorKind)
	}
	// The canceled queued job must never run.
	close(block)
	time.Sleep(20 * time.Millisecond)
	if job, _ := m.Get(queued.ID); job.State != StateCanceled || job.Attempts != 0 {
		t.Errorf("canceled queued job ran anyway: %+v", job)
	}
	if _, serr := m.Cancel("job-999999"); serr == nil || serr.Kind != KindNotFound {
		t.Errorf("cancel of unknown job: got %v, want not-found", serr)
	}
}

func TestDrainStopsAdmissionAndInterruptsCampaigns(t *testing.T) {
	started := make(chan struct{}, 1)
	m := newTestManager(t, Config{Workers: 1})
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		started <- struct{}{}
		<-ctx.Done()
		return "", fmt.Errorf("campaign stopped: %w", ctx.Err())
	}
	job, serr := m.Submit(JobRequest{Kind: "campaign", Window: 2, Trials: 1})
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Drain(ctx)

	if got, _ := m.Get(job.ID); got.State != StateInterrupted {
		t.Errorf("campaign job state after drain = %q, want interrupted", got.State)
	}
	if _, serr := m.Submit(JobRequest{Kind: "sweep", Window: 4}); serr == nil || serr.Kind != KindDraining {
		t.Errorf("submit during drain: got %v, want draining", serr)
	}
	if !m.Draining() {
		t.Error("Draining() = false after Drain")
	}
}

func TestRecoveryReenqueuesPersistedJobs(t *testing.T) {
	dir := t.TempDir()
	// Fabricate the on-disk aftermath of a SIGKILL: one job was running,
	// one still queued.
	write := func(job Job) {
		data := fmt.Sprintf(`{"id":%q,"request":{"kind":"sim","arch":"ultra1","window":4,"workload":"fib"},"state":%q,"attempts":1}`,
			job.ID, job.State)
		if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "jobs", job.ID+".json"), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(Job{ID: "job-000001", State: StateRunning})
	write(Job{ID: "job-000002", State: StateQueued})

	m := newTestManager(t, Config{Dir: dir})
	first := waitState(t, m, "job-000001", StateDone)
	second := waitState(t, m, "job-000002", StateDone)
	if first.Attempts != 2 || second.Attempts != 2 {
		t.Errorf("attempts = %d, %d; want 2, 2 (recovered rerun)", first.Attempts, second.Attempts)
	}
	// New submissions continue the ID sequence past the recovered jobs.
	job, serr := m.Submit(JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"})
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	if job.ID != "job-000003" {
		t.Errorf("next ID = %s, want job-000003", job.ID)
	}
}

// TestCampaignInterruptResumeByteIdentical is the acceptance contract:
// a campaign job interrupted mid-run resumes from its crash-atomic
// checkpoint on restart and produces a report byte-identical to an
// uninterrupted run. (The CI smoke script repeats this across real
// processes with a real SIGTERM; this test drives the same paths
// in-process.)
func TestCampaignInterruptResumeByteIdentical(t *testing.T) {
	req := JobRequest{Kind: "campaign", Window: 2, Trials: 1, Seed: 7, TimeoutMs: 120_000}

	// Reference: uninterrupted run.
	ref := newTestManager(t, Config{Workers: 1})
	refJob, serr := ref.Submit(req)
	if serr != nil {
		t.Fatalf("reference submit: %v", serr)
	}
	want := waitState(t, ref, refJob.ID, StateDone)
	if want.Report == "" {
		t.Fatal("reference report is empty")
	}

	// Interrupted run: wait for at least one checkpointed shard, then
	// drain hard (expired context → immediate cancel, like a kill).
	dir := t.TempDir()
	m1, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	job, serr := m1.Submit(req)
	if serr != nil {
		t.Fatalf("submit: %v", serr)
	}
	ckpt := filepath.Join(dir, "checkpoints", job.ID+".ckpt")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, err := os.ReadFile(ckpt); err == nil && strings.Count(string(data), "\n") >= 2 {
			break // header + at least one shard
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never checkpointed a shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	m1.Drain(expired)
	if got, _ := m1.Get(job.ID); got.State != StateInterrupted {
		t.Fatalf("job state after hard drain = %q, want interrupted", got.State)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("interrupted job lost its checkpoint: %v", err)
	}

	// Restart on the same state dir: the job is recovered, resumes from
	// the checkpoint, and finishes with the byte-identical report.
	m2 := newTestManager(t, Config{Dir: dir, Workers: 1})
	resumed := waitState(t, m2, job.ID, StateDone)
	if resumed.ResumedShards == 0 {
		t.Error("resumed job reports 0 resumed shards; the checkpoint was not used")
	}
	if resumed.Report != want.Report {
		t.Errorf("resumed report diverges from uninterrupted run:\n--- want ---\n%s--- got ---\n%s",
			want.Report, resumed.Report)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("finished job kept its checkpoint (stat: %v)", err)
	}
}

// TestFinishedCampaignLeavesNoCheckpoint: once a campaign job's
// terminal record is in the job journal the job never resumes, so its
// shard checkpoint is removed; a long-lived server must not gain one
// file per campaign it has run.
func TestFinishedCampaignLeavesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir, Workers: 1})
	job, serr := m.Submit(JobRequest{Kind: "campaign", Window: 2, Trials: 1, Seed: 7, TimeoutMs: 120_000})
	if serr != nil {
		t.Fatalf("submit: %v", serr)
	}
	waitState(t, m, job.ID, StateDone)
	ents, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("finished campaign left %s behind", e.Name())
	}
}

func TestListIsSortedByID(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueCap: 8})
	for i := 0; i < 5; i++ {
		if _, serr := m.Submit(JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"}); serr != nil {
			t.Fatalf("Submit %d: %v", i, serr)
		}
	}
	jobs := m.List()
	if len(jobs) != 5 {
		t.Fatalf("List returned %d jobs, want 5", len(jobs))
	}
	for i, job := range jobs {
		if want := fmt.Sprintf("job-%06d", i+1); job.ID != want {
			t.Errorf("List[%d].ID = %s, want %s", i, job.ID, want)
		}
	}
}

// TestKernelByNameAllocFree: the kernel suite is assembled once per
// process, so resolving a sim job's workload after the first call
// allocates nothing.
func TestKernelByNameAllocFree(t *testing.T) {
	if _, ok := kernelByName("fib"); !ok {
		t.Fatal("fib not in the kernel suite")
	}
	if allocs := testing.AllocsPerRun(100, func() { kernelByName("collatz") }); allocs != 0 {
		t.Fatalf("kernelByName allocates %v per call, want 0", allocs)
	}
}

// TestConcurrentSimJobsShareKernels runs sim jobs of every kernel on
// two workers at once. The workers share the memoized suite's programs,
// so under -race this shows that jobs only read them; the reports must
// also equal a one-worker run's.
func TestConcurrentSimJobsShareKernels(t *testing.T) {
	reports := func(workers int) map[string]string {
		m := newTestManager(t, Config{Workers: workers, QueueCap: 64})
		var ids []string
		for round := 0; round < 2; round++ {
			for _, w := range kernelSuite() {
				job, serr := m.Submit(JobRequest{Kind: "sim", Arch: "hybrid", Window: 16, Workload: w.Name})
				if serr != nil {
					t.Fatalf("Submit %s: %v", w.Name, serr)
				}
				ids = append(ids, job.ID)
			}
		}
		out := map[string]string{}
		for _, id := range ids {
			out[id] = waitState(t, m, id, StateDone).Report
		}
		return out
	}
	serial, parallel := reports(1), reports(2)
	for id, rep := range serial {
		if parallel[id] != rep {
			t.Errorf("%s: two-worker report differs:\n%s\nvs\n%s", id, parallel[id], rep)
		}
	}
}
