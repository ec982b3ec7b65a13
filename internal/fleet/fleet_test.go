package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ultrascalar/internal/exp"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/obs"
	"ultrascalar/internal/serve"
)

// testSpec is the campaign every fleet test distributes: the full
// default shard grid at a small window and one trial per cell, so a
// complete distributed run takes milliseconds of engine time.
var testSpec = CampaignSpec{Seed: 5, Window: 6, Trials: 1}

// directReport runs the same campaign in-process — the byte-identity
// reference every fleet result is compared against.
func directReport(t *testing.T) string {
	t.Helper()
	rep, err := exp.RunFaultCampaign(exp.FaultCampaignConfig{
		Seed: testSpec.Seed, Window: testSpec.Window, Cluster: testSpec.Cluster,
		N: testSpec.Trials, Detect: fault.DetectGolden,
	})
	if err != nil {
		t.Fatalf("direct campaign: %v", err)
	}
	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// newWorker starts a real usserve worker (manager + HTTP server) and
// returns its base URL.
func newWorker(t *testing.T) string {
	t.Helper()
	m, err := serve.New(serve.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Drain(ctx)
	})
	return srv.URL
}

// fastConfig is the test coordinator baseline: tight heartbeats so a
// full 63-shard run finishes quickly, hedging off unless a test wants
// it, deterministic mid-range jitter.
func fastConfig(workers ...string) Config {
	return Config{
		Workers:   workers,
		Campaign:  testSpec,
		Heartbeat: 5 * time.Millisecond,
		LeaseTTL:  time.Minute,
		// Hedging off by default: these tests assert exact event
		// tallies, and an unasked-for hedge would perturb them.
		HedgeAfter: -1,
		Retry:      Policy{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Mult: 2},
		Rand:       func() float64 { return 0.5 },
	}
}

func runFleet(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return c, b.String()
}

// TestFleetMergedReportMatchesDirect is the core byte-identity bar:
// the merged report from 1 and 2 distributed workers must equal a
// single-process campaign byte for byte.
func TestFleetMergedReportMatchesDirect(t *testing.T) {
	want := directReport(t)
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			var workers []string
			for i := 0; i < n; i++ {
				workers = append(workers, newWorker(t))
			}
			c, got := runFleet(t, fastConfig(workers...))
			if got != want {
				t.Fatalf("merged report diverges from direct run\n--- direct ---\n%s--- fleet(%d) ---\n%s", want, n, got)
			}
			st := c.Status()
			if st.State != "done" || st.ShardsDone != st.ShardsTotal {
				t.Fatalf("status after success: %+v", st)
			}
		})
	}
}

// TestFleetResume: a coordinator restarted over a complete checkpoint
// must not contact any worker, and a partial checkpoint must only
// dispatch the missing shards — both producing the reference report.
func TestFleetResume(t *testing.T) {
	want := directReport(t)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	cfg := fastConfig(newWorker(t))
	cfg.Checkpoint = ckpt
	_, got := runFleet(t, cfg)
	if got != want {
		t.Fatalf("first run diverges from direct report")
	}

	// Full checkpoint: resume with a worker that cannot be reached. If
	// any shard were re-dispatched the run would stall on retries.
	cfg2 := fastConfig("http://127.0.0.1:1") // nothing listens there
	cfg2.Checkpoint = ckpt
	c2, got2 := runFleet(t, cfg2)
	if got2 != want {
		t.Fatalf("resumed report diverges from direct report")
	}
	if st := c2.Status(); st.Resumed != st.ShardsTotal {
		t.Fatalf("resume should recover every shard from checkpoint, got %d/%d", st.Resumed, st.ShardsTotal)
	}

	// Partial checkpoint: rewrite it without some shards and resume
	// against a real worker; only the dropped ones may be dispatched.
	old, err := exp.OpenCheckpoint(ckpt, testSpec.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	done := old.Cells()
	old.Close()
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	partial, err := exp.OpenCheckpoint(ckpt, testSpec.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(done))
	for k := range done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const dropped = 7
	for _, k := range keys[dropped:] {
		if err := partial.Record(k, done[k]); err != nil {
			t.Fatal(err)
		}
	}
	partial.Close()
	cfg3 := fastConfig(newWorker(t))
	cfg3.Checkpoint = ckpt
	c3, got3 := runFleet(t, cfg3)
	if got3 != want {
		t.Fatalf("partially-resumed report diverges from direct report")
	}
	st := c3.Status()
	if st.Resumed != st.ShardsTotal-dropped {
		t.Fatalf("partial resume: got %d resumed, want %d", st.Resumed, st.ShardsTotal-dropped)
	}
}

// TestFleetCheckpointFingerprintMismatch: a checkpoint from a
// different campaign configuration must refuse to load.
func TestFleetCheckpointFingerprintMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	ck, err := exp.OpenCheckpoint(ckpt, testSpec.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("a/b/c", fault.Cell{}); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	other := testSpec
	other.Seed++
	cfg := fastConfig("http://127.0.0.1:1") // never contacted
	cfg.Campaign, cfg.Checkpoint = other, ckpt
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("resuming from a mismatched fingerprint: got %v, want a different-campaign refusal", err)
	}
}

// TestFleetResumeTornTail: a coordinator killed mid-append leaves a
// torn final record. The restarted coordinator drops it, re-dispatches
// that one shard and still produces the reference report.
func TestFleetResumeTornTail(t *testing.T) {
	want := directReport(t)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	cfg := fastConfig(newWorker(t))
	cfg.Checkpoint = ckpt
	if _, got := runFleet(t, cfg); got != want {
		t.Fatalf("first run diverges from direct report")
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg2 := fastConfig(newWorker(t))
	cfg2.Checkpoint = ckpt
	c2, got := runFleet(t, cfg2)
	if got != want {
		t.Fatalf("torn-tail resume diverges from direct report")
	}
	if st := c2.Status(); st.Resumed != st.ShardsTotal-1 {
		t.Fatalf("torn-tail resume: got %d resumed, want %d", st.Resumed, st.ShardsTotal-1)
	}
	after, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bytes.Count(after, []byte("\n")), bytes.Count(data, []byte("\n")); got != want {
		t.Fatalf("checkpoint has %d records after resume, want %d", got, want)
	}
}

// shedOnce wraps a real worker and sheds the first N submits with
// 503 + Retry-After, recording submit arrival times so the test can
// assert the client honored the hint.
type shedOnce struct {
	mu      sync.Mutex
	sheds   int
	submits []time.Time
	backend http.Handler
}

func (s *shedOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/jobs" {
		s.mu.Lock()
		s.submits = append(s.submits, time.Now())
		shed := s.sheds > 0
		if shed {
			s.sheds--
		}
		s.mu.Unlock()
		if shed {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"error":{"kind":%q,"message":"queue full"}}`, serve.KindShed)
			return
		}
	}
	s.backend.ServeHTTP(w, r)
}

// TestFleetHonorsRetryAfter: after a shed with Retry-After: 1 the
// client must not resubmit to that worker for at least a second, even
// though its backoff policy alone would retry much sooner.
func TestFleetHonorsRetryAfter(t *testing.T) {
	m, err := serve.New(serve.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	shed := &shedOnce{sheds: 1, backend: m.Handler()}
	srv := httptest.NewServer(shed)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Drain(ctx)
	})

	cfg := fastConfig(srv.URL)
	// One lease slot: with two, the second agent's submit is already in
	// flight when the shed lands, and the arrival-gap assertion below
	// would race it.
	cfg.LeasesPerWorker = 1
	cfg.Metrics = obs.NewRegistry()
	want := directReport(t)
	_, got := runFleet(t, cfg)
	if got != want {
		t.Fatalf("report diverges after shed + retry")
	}

	shed.mu.Lock()
	defer shed.mu.Unlock()
	if len(shed.submits) < 2 {
		t.Fatalf("want the shed submit and a retry, got %d submits", len(shed.submits))
	}
	if gap := shed.submits[1].Sub(shed.submits[0]); gap < time.Second {
		t.Fatalf("resubmitted %v after a shed with Retry-After: 1 — hint not honored", gap)
	}
	if v := counterValue(cfg.Metrics, "fleet.backpressure"); v < 1 {
		t.Fatalf("fleet.backpressure = %d, want >= 1", v)
	}
}

// counterValue sums a counter across its label variants.
func counterValue(r *obs.Registry, name string) int64 {
	var total int64
	for n, v := range r.Peek(0).Counters {
		base, _ := obs.SplitLabeledName(n)
		if base == name {
			total += v
		}
	}
	return total
}

// blackhole accepts submits and then answers every progress poll with
// a server error — a worker that went silently wrong mid-job. Cancel
// succeeds so reaping is visible.
type blackhole struct {
	mu       sync.Mutex
	submits  int
	cancels  int
	progress int
}

func (b *blackhole) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		b.submits++
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.Job{ID: fmt.Sprintf("bh-%d", b.submits), State: serve.StateQueued})
	case r.Method == http.MethodDelete:
		b.cancels++
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "{}")
	case strings.HasSuffix(r.URL.Path, "/progress"):
		b.progress++
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":{"kind":"internal","message":"lost my mind"}}`)
	default:
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "{}")
	}
}

// TestFleetSurvivesSilentWorkerDeath: one worker takes jobs and never
// heartbeats a result; the fleet must detect the silent death via
// missed heartbeats, trip that worker's breaker, and finish the whole
// campaign on the healthy worker with a byte-identical report.
func TestFleetSurvivesSilentWorkerDeath(t *testing.T) {
	bh := &blackhole{}
	bhSrv := httptest.NewServer(bh)
	t.Cleanup(bhSrv.Close)

	cfg := fastConfig(newWorker(t), bhSrv.URL)
	cfg.MissedHeartbeats = 2
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Minute // long: once open it stays open for the test
	cfg.Metrics = obs.NewRegistry()
	want := directReport(t)
	c, got := runFleet(t, cfg)
	if got != want {
		t.Fatalf("report diverges with a silently-dead worker in the fleet")
	}
	st := c.Status()
	if st.Retries == 0 {
		t.Fatalf("expected worker-dead retries, status %+v", st)
	}
	opened := false
	for _, w := range st.Workers {
		if w.URL == bhSrv.URL && w.Breaker != serve.BreakerClosed {
			opened = true
		}
	}
	if !opened {
		t.Fatalf("dead worker's breaker never opened: %+v", st.Workers)
	}
	if v := counterValue(cfg.Metrics, "fleet.retries"); v < 1 {
		t.Fatalf("fleet.retries = %d, want >= 1", v)
	}
}

// stuckWorker accepts submits and reports the job running forever —
// responsive but never finishing. Exercises lease expiry (and, with a
// healthy partner, hedging).
type stuckWorker struct {
	mu      sync.Mutex
	submits int
	cancels int
}

func (s *stuckWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		s.submits++
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.Job{ID: fmt.Sprintf("stuck-%d", s.submits), State: serve.StateQueued})
	case r.Method == http.MethodDelete:
		s.cancels++
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "{}")
	case strings.HasSuffix(r.URL.Path, "/progress"):
		parts := strings.Split(r.URL.Path, "/")
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.Progress{ID: parts[2], State: serve.StateRunning})
	default:
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "{}")
	}
}

// TestFleetLeaseExpiry: a worker that holds jobs forever must lose its
// leases at the TTL, have the jobs cancelled, and the shards re-run
// elsewhere — report still byte-identical.
func TestFleetLeaseExpiry(t *testing.T) {
	stuck := &stuckWorker{}
	stuckSrv := httptest.NewServer(stuck)
	t.Cleanup(stuckSrv.Close)

	cfg := fastConfig(newWorker(t), stuckSrv.URL)
	cfg.LeaseTTL = 40 * time.Millisecond
	cfg.BreakerThreshold = 1000 // keep the breaker out of this test
	cfg.Metrics = obs.NewRegistry()
	want := directReport(t)
	c, got := runFleet(t, cfg)
	if got != want {
		t.Fatalf("report diverges with an infinitely-slow worker in the fleet")
	}
	st := c.Status()
	if st.LeaseExpired == 0 {
		t.Fatalf("expected lease expirations, status %+v", st)
	}
	stuck.mu.Lock()
	cancels := stuck.cancels
	stuck.mu.Unlock()
	if cancels == 0 {
		t.Fatal("expired leases should cancel the abandoned jobs")
	}
	if v := counterValue(cfg.Metrics, "fleet.lease_expired"); v < 1 {
		t.Fatalf("fleet.lease_expired = %d, want >= 1", v)
	}
}

// TestFleetHedging: with hedging enabled and a worker sitting on its
// jobs, an idle healthy worker must re-dispatch the straggler shards,
// win, and cancel the losers — without double-counting any shard.
func TestFleetHedging(t *testing.T) {
	stuck := &stuckWorker{}
	stuckSrv := httptest.NewServer(stuck)
	t.Cleanup(stuckSrv.Close)

	cfg := fastConfig(newWorker(t), stuckSrv.URL)
	cfg.HedgeAfter = 20 * time.Millisecond
	cfg.LeaseTTL = time.Minute // leases never expire: only hedging can save the stuck shards
	cfg.BreakerThreshold = 1000
	cfg.Metrics = obs.NewRegistry()
	want := directReport(t)
	c, got := runFleet(t, cfg)
	if got != want {
		t.Fatalf("report diverges under hedged re-dispatch")
	}
	st := c.Status()
	if st.HedgeWins == 0 {
		t.Fatalf("expected hedge wins against the stuck worker, status %+v", st)
	}
	stuck.mu.Lock()
	cancels := stuck.cancels
	stuck.mu.Unlock()
	if cancels == 0 {
		t.Fatal("hedge losers should be cancelled")
	}
	if v := counterValue(cfg.Metrics, "fleet.hedge_wins"); v < 1 {
		t.Fatalf("fleet.hedge_wins = %d, want >= 1", v)
	}
}

// TestPolicyBackoff covers the retry curve: exponential growth, the
// cap, full-jitter bounds, and Retry-After acting as a floor.
func TestPolicyBackoff(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 2 * time.Second, Mult: 2}
	wantCeil := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second, 2 * time.Second,
	}
	for i, want := range wantCeil {
		if got := p.Ceiling(i); got != want {
			t.Fatalf("Ceiling(%d) = %v, want %v", i, got, want)
		}
	}
	if got := p.Backoff(3, func() float64 { return 0 }); got != 0 {
		t.Fatalf("full jitter floor: got %v, want 0", got)
	}
	if got := p.Backoff(3, func() float64 { return 0.5 }); got != 400*time.Millisecond {
		t.Fatalf("mid jitter: got %v, want 400ms", got)
	}
	if got := p.Wait(0, 5*time.Second, func() float64 { return 0.99 }); got != 5*time.Second {
		t.Fatalf("Retry-After should floor the wait: got %v", got)
	}
	if got := p.Wait(5, 0, func() float64 { return 1 - 1e-12 }); got > 2*time.Second {
		t.Fatalf("wait above cap: %v", got)
	}
	var zero Policy
	if got := zero.Ceiling(0); got != DefaultPolicy.Base {
		t.Fatalf("zero policy should adopt defaults, Ceiling(0) = %v", got)
	}
}

// TestClientErrorClassification: backpressure kinds are not breaker
// failures; transport errors and plain 5xx are.
func TestClientErrorClassification(t *testing.T) {
	shed := &HTTPError{Status: 503, Kind: serve.KindShed, RetryAfter: time.Second}
	if !shed.Backpressure() || IsBreakerFailure(shed) {
		t.Fatalf("shed should be backpressure, not a breaker failure")
	}
	boom := &HTTPError{Status: 500, Kind: serve.KindInternal}
	if boom.Backpressure() || !IsBreakerFailure(boom) {
		t.Fatalf("internal 500 should count toward the breaker")
	}
	notFound := &HTTPError{Status: 404, Kind: serve.KindNotFound}
	if IsBreakerFailure(notFound) {
		t.Fatalf("a 404 comes from a healthy worker; not a breaker failure")
	}
	if !IsBreakerFailure(fmt.Errorf("dial tcp: connection refused")) {
		t.Fatalf("transport errors are breaker failures")
	}
}

// TestOverBudget pins the retry-budget arithmetic: a fraction of total
// dispatches, exhausted when one more retry would cross it, disabled
// by a negative budget.
func TestOverBudget(t *testing.T) {
	cases := []struct {
		budget              float64
		retries, dispatches int
		want                bool
	}{
		{0.5, 0, 1, true},    // 1 retry against 1 dispatch is 100% retries
		{0.5, 0, 2, false},   // 1 of 2 is exactly the budget
		{0.5, 1, 2, true},    // 2 of 2 is over
		{0.5, 30, 63, false}, // 31 of 63 still under half
		{0.5, 32, 63, true},
		{-1, 1000, 1, false}, // negative disables the budget entirely
	}
	for _, c := range cases {
		if got := overBudget(c.budget, c.retries, c.dispatches); got != c.want {
			t.Errorf("overBudget(%v, %d, %d) = %v, want %v",
				c.budget, c.retries, c.dispatches, got, c.want)
		}
	}
}

// flakyFront wraps a real worker: the first N submits fail with a
// plain 500, and every submit's decoded request is recorded so the
// test can check deadline propagation.
type flakyFront struct {
	mu       sync.Mutex
	failures int
	reqs     []serve.JobRequest
	backend  http.Handler
}

func (f *flakyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/jobs" {
		data, err := io.ReadAll(r.Body)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		var req serve.JobRequest
		json.Unmarshal(data, &req)
		f.mu.Lock()
		f.reqs = append(f.reqs, req)
		fail := f.failures > 0
		if fail {
			f.failures--
		}
		f.mu.Unlock()
		if fail {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, "transient storage error")
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(data))
	}
	f.backend.ServeHTTP(w, r)
}

// TestFleetRetryBudgetAndDeadlinePropagation: with a near-zero retry
// budget, submit failures push retries onto the slow lane (visible in
// Status and metrics) but the campaign still converges byte-identical;
// and every dispatched job carries the lease TTL as its server-side
// timeout so abandoned jobs die with their lease.
func TestFleetRetryBudgetAndDeadlinePropagation(t *testing.T) {
	m, err := serve.New(serve.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	front := &flakyFront{failures: 4, backend: m.Handler()}
	srv := httptest.NewServer(front)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Drain(ctx)
	})

	cfg := fastConfig(srv.URL)
	cfg.RetryBudget = 0.01      // first failed submit already exhausts it
	cfg.BreakerThreshold = 1000 // keep the breaker out of this test
	cfg.Retry.Max = 30 * time.Millisecond
	cfg.Metrics = obs.NewRegistry()
	want := directReport(t)
	c, got := runFleet(t, cfg)
	if got != want {
		t.Fatalf("report diverges after budget-limited retries")
	}

	st := c.Status()
	if st.BudgetExhausted < 1 {
		t.Fatalf("budget never reported exhausted: %+v", st)
	}
	if st.Retries < 4 {
		t.Fatalf("retries = %d, want >= 4 (one per injected failure)", st.Retries)
	}
	if st.Dispatches < st.ShardsTotal {
		t.Fatalf("dispatches = %d, want >= %d shards", st.Dispatches, st.ShardsTotal)
	}
	if v := counterValue(cfg.Metrics, "fleet.retry_budget_exhausted"); v < 1 {
		t.Fatalf("fleet.retry_budget_exhausted = %d, want >= 1", v)
	}

	front.mu.Lock()
	defer front.mu.Unlock()
	if len(front.reqs) == 0 {
		t.Fatal("no submits recorded")
	}
	for i, req := range front.reqs {
		if req.TimeoutMs != cfg.LeaseTTL.Milliseconds() {
			t.Fatalf("submit %d carried timeout_ms %d, want lease TTL %d",
				i, req.TimeoutMs, cfg.LeaseTTL.Milliseconds())
		}
	}
}

// TestClientReadyTracksDrain: readiness fails once the worker starts
// draining while liveness keeps answering — the signal deploy and
// chaos tooling must gate dispatch on.
func TestClientReadyTracksDrain(t *testing.T) {
	m, err := serve.New(serve.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("healthy worker not ready: %v", err)
	}
	m.Drain(ctx)
	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("drained worker should stay live: %v", err)
	}
	err = cl.Ready(ctx)
	if err == nil {
		t.Fatal("drained worker still reports ready")
	}
	herr, ok := err.(*HTTPError)
	if !ok || herr.Status != 503 || herr.Kind != serve.KindDraining {
		t.Fatalf("readiness failure = %v, want 503 %s", err, serve.KindDraining)
	}
}
