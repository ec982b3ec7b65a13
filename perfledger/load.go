package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"ultrascalar/internal/core"
	"ultrascalar/internal/exp"
	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
	"ultrascalar/internal/serve"
	"ultrascalar/internal/workload"
)

// The open-loop load on a usserve: one sender and one watcher, each
// with one HTTP connection, and the accounting of every request.

// Request outcomes.
const (
	outUnsent  = "" // the schedule ended before the sender reached it
	outDone    = "done"
	outRefused = "refused" // 503: shed, draining or breaker open
	outFailed  = "failed"  // an error, a failed job, or a failed check
)

// reqResult is what happened to one planned request.
type reqResult struct {
	step       int
	outcome    string
	submitMs   float64 // POST round trip
	latencyMs  float64 // due time to observed completion; +Inf unless done
	id, trace  string
	reportHash string
	report     string // kept for sim jobs, whose numbers are checked
	span       obslog.Span
	err        error
}

// loadRun is one open-loop run against a service.
type loadRun struct {
	base  string
	plan  []planned
	steps []step
	rec   *obslog.SpanRecorder
	// onStep, when set, is called by the watcher as step k begins, and
	// with k = len(steps) when the last one ends.
	onStep func(k int)

	results []reqResult
	lateMs  []float64
	sweepMs []float64 // watcher sweep durations: how stale a completion can be when seen
	// At each step boundary (and the end): when the watcher recorded it,
	// the jobs outstanding, and the server's serve.jobs_done counter.
	boundaryAt []time.Time
	backlog    []int
	served     []int64
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// run offers the plan on schedule and waits for every accepted job.
// The sender and the watcher each own one HTTP connection.
func (l *loadRun) run(ctx context.Context, clk clock) error {
	offsets, stepOf := schedule(l.steps)
	if len(offsets) > len(l.plan) {
		return fmt.Errorf("plan has %d requests, schedule needs %d", len(l.plan), len(offsets))
	}
	l.results = make([]reqResult, len(offsets))
	sendC, watchC := newHTTPClient(), newHTTPClient()
	defer sendC.CloseIdleConnections()
	defer watchC.CloseIdleConnections()

	start := clk.Now().Add(20 * time.Millisecond)
	bounds := []time.Time{start} // when each step begins, then when the last ends
	for _, st := range l.steps {
		bounds = append(bounds, bounds[len(bounds)-1].Add(st.dur))
	}
	end := bounds[len(bounds)-1]
	for i := range l.results {
		l.results[i].step, l.results[i].latencyMs = stepOf[i], math.Inf(1)
	}

	var mu sync.Mutex
	outstanding := map[int]time.Time{} // request index -> due time
	senderDone := make(chan struct{})
	watchErr := make(chan error, 1)
	go func() { watchErr <- l.watch(ctx, watchC, bounds, &mu, outstanding, senderDone) }()

	l.lateMs = sendOpenLoop(clk, start, offsets, end, func(i int) {
		due := start.Add(offsets[i])
		r := &l.results[i]
		sp := l.rec.Start("serve_mix", "client.post", l.plan[i].key)
		t0 := time.Now()
		job, status, err := postJob(ctx, sendC, l.base, l.plan[i].req)
		r.submitMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		sp.End()
		switch {
		case err != nil:
			r.outcome, r.err = outFailed, err
		case status == http.StatusServiceUnavailable:
			r.outcome = outRefused
		case status != http.StatusAccepted:
			r.outcome, r.err = outFailed, fmt.Errorf("POST /jobs: status %d", status)
		default:
			r.id, r.trace = job.ID, job.Trace
			r.span = l.rec.Start(obslog.TraceID(job.Trace), "client.job", l.plan[i].key)
			mu.Lock()
			outstanding[i] = due
			mu.Unlock()
		}
	})
	clk.SleepUntil(end)
	close(senderDone)
	return <-watchErr
}

// stepBoundary records the backlog and the server's count of finished
// jobs as a step begins (or the last one ends), and calls onStep. A
// failed scrape records -1, for which finishRate reports NaN and the
// run fails.
func (l *loadRun) stepBoundary(ctx context.Context, hc *http.Client, mu *sync.Mutex, outstanding map[int]time.Time) {
	mu.Lock()
	l.backlog = append(l.backlog, len(outstanding))
	mu.Unlock()
	served := int64(-1)
	if snap, err := scrape(ctx, hc, l.base); err == nil {
		served = snap.Counters["serve.jobs_done"]
	}
	l.boundaryAt = append(l.boundaryAt, time.Now())
	l.served = append(l.served, served)
	if l.onStep != nil {
		l.onStep(len(l.backlog) - 1)
	}
}

// watch polls outstanding jobs until the sender is done and none is
// left. The server runs each class's queue in order with serveWorkers
// workers, so only the oldest few outstanding jobs of a class can have
// finished; a sweep polls those (pollPerClass of each class), which
// keeps the watcher's own load on the two shared CPUs small when a
// backlog builds. A sweep that finds nothing finished sleeps 1 ms. At
// each step boundary the watcher records the backlog and the server's
// finished-job count.
func (l *loadRun) watch(ctx context.Context, hc *http.Client, bounds []time.Time, mu *sync.Mutex,
	outstanding map[int]time.Time, senderDone <-chan struct{}) error {
	var drainDeadline time.Time
	for {
		for len(l.boundaryAt) < len(bounds) && !time.Now().Before(bounds[len(l.boundaryAt)]) {
			l.stepBoundary(ctx, hc, mu, outstanding)
		}
		mu.Lock()
		all := make([]int, 0, len(outstanding))
		for i := range outstanding {
			all = append(all, i)
		}
		mu.Unlock()
		sort.Ints(all)
		var ids []int
		perClass := map[string]int{}
		for _, i := range all {
			if c := l.plan[i].class; perClass[c] < pollPerClass {
				perClass[c]++
				ids = append(ids, i)
			}
		}
		select {
		case <-senderDone:
			if len(ids) == 0 {
				return nil
			}
			if drainDeadline.IsZero() {
				drainDeadline = time.Now().Add(60 * time.Second)
			} else if time.Now().After(drainDeadline) {
				for _, i := range all {
					l.results[i].outcome = outFailed
					l.results[i].err = fmt.Errorf("job %s did not finish within 60 s of the last request", l.results[i].id)
				}
				return nil
			}
		default:
		}
		sweepStart := time.Now()
		found := false
		for _, i := range ids {
			r := &l.results[i]
			job, err := getJob(ctx, hc, l.base, r.id)
			if err != nil {
				return err
			}
			switch job.State {
			case serve.StateQueued, serve.StateRunning:
				continue
			case serve.StateDone:
				mu.Lock()
				r.latencyMs = float64(time.Since(outstanding[i]).Nanoseconds()) / 1e6
				mu.Unlock()
				sum := sha256.Sum256([]byte(job.Report))
				r.outcome, r.reportHash = outDone, hex.EncodeToString(sum[:])
				if l.plan[i].class == "sim" {
					r.report = job.Report
				}
			default:
				r.outcome = outFailed
				r.err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
			}
			r.span.End()
			found = true
			mu.Lock()
			delete(outstanding, i)
			mu.Unlock()
		}
		if len(ids) > 0 {
			l.sweepMs = append(l.sweepMs, float64(time.Since(sweepStart).Nanoseconds())/1e6)
		}
		if !found {
			time.Sleep(time.Millisecond)
		}
	}
}

func postJob(ctx context.Context, hc *http.Client, base string, req serve.JobRequest) (*serve.Job, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, resp.StatusCode, nil
	}
	var job serve.Job
	if err := json.Unmarshal(data, &job); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("decoding POST /jobs: %w", err)
	}
	return &job, resp.StatusCode, nil
}

func getJob(ctx context.Context, hc *http.Client, base, id string) (*serve.Job, error) {
	var job serve.Job
	if err := getJSON(ctx, hc, base+"/jobs/"+id, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

func scrape(ctx context.Context, hc *http.Client, base string) (obs.Snapshot, error) {
	var doc struct {
		Snapshot obs.Snapshot `json:"snapshot"`
	}
	err := getJSON(ctx, hc, base+"/metrics", &doc)
	return doc.Snapshot, err
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	return nil
}

// check verifies every finished job: equal keys got equal reports, and
// each sim report's cycle and retirement counts equal a direct
// core.RunCtx of the same configuration. Every request is one operation;
// a refusal is not a failure (shedding is the admission policy working).
func (l *loadRun) check(ctx context.Context, m *measurement) {
	hashes := map[string]string{}
	direct := map[string]string{}
	for i := range l.results {
		r := &l.results[i]
		if r.outcome == outUnsent {
			continue
		}
		err := r.err
		if r.outcome == outDone {
			p := l.plan[i]
			if h, ok := hashes[p.key]; ok && h != r.reportHash {
				err = fmt.Errorf("%s: report differs from an earlier job with the same request", p.key)
			}
			hashes[p.key] = r.reportHash
			if err == nil && p.class == "sim" {
				want, ok := direct[p.key]
				if !ok {
					want, err = directSim(ctx, p.req)
					direct[p.key] = want
				}
				if got := simNumbers(r.report); err == nil && got != want {
					err = fmt.Errorf("%s: served %q, direct run %q", p.key, got, want)
				}
			}
		}
		m.op(err)
	}
}

// directSim runs a sim request's configuration on the engine directly.
func directSim(ctx context.Context, req serve.JobRequest) (string, error) {
	cfg, err := exp.ArchConfig(req.Arch, req.Window, req.Window/4)
	if err != nil {
		return "", err
	}
	for _, w := range workload.Kernels() {
		if w.Name == req.Workload {
			res, err := core.RunCtx(ctx, w.Prog, w.Mem(), cfg)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("cycles=%d retired=%d", res.Stats.Cycles, res.Stats.Retired), nil
		}
	}
	return "", fmt.Errorf("no kernel %q", req.Workload)
}

// simNumbers extracts "cycles=N retired=M" from a sim job's report.
func simNumbers(report string) string {
	var cycles, retired int64
	for _, line := range bytes.Split([]byte(report), []byte("\n")) {
		if n, _ := fmt.Sscanf(string(line), "cycles=%d retired=%d", &cycles, &retired); n == 2 {
			return fmt.Sprintf("cycles=%d retired=%d", cycles, retired)
		}
	}
	return "no counts in report"
}

// stepLatencies returns the latencies (ms, +Inf when not done) of the
// requests due in step k, optionally of one class.
func (l *loadRun) stepLatencies(k int, class string) []float64 {
	var out []float64
	for i, r := range l.results {
		if r.step == k && (class == "" || l.plan[i].class == class) {
			out = append(out, r.latencyMs)
		}
	}
	return out
}

// finishRate is the rate at which the server finished jobs between
// step boundaries a and b, by its own counter: the watcher sees a job
// finish only when it next polls it, which lags further as a backlog
// builds.
func (l *loadRun) finishRate(a, b int) float64 {
	if l.served[a] < 0 || l.served[b] < 0 {
		return math.NaN()
	}
	return float64(l.served[b]-l.served[a]) / l.boundaryAt[b].Sub(l.boundaryAt[a]).Seconds()
}

// capacity is the rate at which jobs finished during the last step.
func (l *loadRun) capacity() float64 {
	return l.finishRate(len(l.steps)-1, len(l.steps))
}

// refusedShare is the share of step k's requests the service refused.
func (l *loadRun) refusedShare(k int) float64 {
	n, refused := 0, 0
	for _, r := range l.results {
		if r.step == k {
			n++
			if r.outcome == outRefused {
				refused++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(refused) / float64(n)
}

// maxRateOK is the highest offered rate whose step kept p99 latency
// within the limit, refused at most 1% and did not grow the backlog by
// more than the limit's worth of arrivals.
func (l *loadRun) maxRateOK() float64 {
	best := 0.0
	for k, s := range l.steps {
		p99 := quantile(l.stepLatencies(k, ""), 0.99)
		growth := l.backlog[k+1] - l.backlog[k]
		if p99 <= latencyLimitMs && l.refusedShare(k) <= 0.01 &&
			float64(growth) <= s.rate*latencyLimitMs/1e3 && s.rate > best {
			best = s.rate
		}
	}
	return best
}

// summary is one line per step for the log.
func (l *loadRun) summary() string {
	var b bytes.Buffer
	for k, s := range l.steps {
		fmt.Fprintf(&b, "[%.0f/s p50=%.2fms p99=%.2fms finished=%.0f/s refused=%.1f%% backlog=%d->%d] ",
			s.rate, quantile(l.stepLatencies(k, ""), 0.5), quantile(l.stepLatencies(k, ""), 0.99),
			l.finishRate(k, k+1), 100*l.refusedShare(k), l.backlog[k], l.backlog[k+1])
	}
	return b.String()
}
