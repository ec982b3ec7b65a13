package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
	"ultrascalar/internal/serve"
)

// serve_mix: a child usserve (2 workers, queue 64, result cache off)
// driven open-loop by one sender and one watcher, each on its own
// connection, with usload's request mix (sim 12 : sweep 3 : campaign 1)
// at n = 16. The offered rate steps up through serveRates, each step a
// quarter of the measured phase. Latency runs from each request's due
// time to the watcher seeing it finish; a refused or failed request
// counts as missing every latency limit.
//
// Every job costs three fsynced job-record writes under the manager's
// lock, one of them inside its POST, so one sender connection cannot
// offer much more than the service completes: past capacity the sender
// falls behind its schedule (latency from the due time grows without
// bound) rather than filling the queue until the server sheds. Requests
// the sender has not reached when the last step ends are not sent; they
// count as missing the latency limit of their step.
//
// The two top steps are past capacity: the first builds a backlog, and
// the rate at which jobs finish during the second is the service's
// capacity. That rate follows the machine's speed more than anything
// else here: with the client on the same two CPUs, sets of runs 13%
// slower at 200/s showed a capacity 25% lower. So capacity is a layer
// metric, and the end-to-end throughput is the rate at which jobs finish
// while 400 requests/s are offered.

const (
	serveWindow    = 16
	serveTrials    = 4
	serveQueue     = 64
	serveWorkers   = 2
	latencyLimitMs = 50
	pollPerClass   = serveWorkers + 2
	// medianStep is the sub-saturation step whose latency is op_ms.
	medianStep = 0
	// goodputStep is the 400/s step, near capacity when the machine runs
	// slow; the rate at which jobs finish during it is throughput_per_s.
	goodputStep = 1
)

var serveRates = []float64{200, 400, 1600, 1600}

// The parameter pools the request mix draws from (usload's).
var (
	mixArchs     = []string{"ultra1", "ultra2", "hybrid"}
	mixWorkloads = []string{"fib", "vecsum", "gcd"}
	mixSites     = []string{"result-bit", "operand-bit", "merge-bit", "ready-stuck1", "ready-stuck0", "drop-forward", "dup-forward"}
)

// splitmix64 is the seeded stream behind the request mix.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// planned is one request of the plan with the key its report is
// checked under: requests with equal keys must get equal reports.
type planned struct {
	class, key string
	req        serve.JobRequest
}

// buildPlan draws n requests from the seed: 12 sim, 3 sweep and 1
// campaign in 16, with machine, kernel and fault site drawn uniformly.
func buildPlan(seed int64, n int) []planned {
	rng := &splitmix64{s: uint64(seed)}
	plan := make([]planned, n)
	for i := range plan {
		req := serve.JobRequest{Window: serveWindow}
		var key string
		switch c := rng.intn(16); {
		case c < 12:
			req.Kind = "sim"
			req.Arch = mixArchs[rng.intn(len(mixArchs))]
			req.Workload = mixWorkloads[rng.intn(len(mixWorkloads))]
			key = fmt.Sprintf("sim/%s/%s", req.Arch, req.Workload)
		case c < 15:
			req.Kind = "sweep"
			key = "sweep"
		default:
			req.Kind = "campaign"
			req.Seed, req.Trials = seed, serveTrials
			req.Archs = []string{mixArchs[rng.intn(len(mixArchs))]}
			req.Sites = []string{mixSites[rng.intn(len(mixSites))]}
			req.Workloads = []string{mixWorkloads[rng.intn(len(mixWorkloads))]}
			key = fmt.Sprintf("campaign/%s/%s/%s", req.Archs[0], req.Workloads[0], req.Sites[0])
		}
		plan[i] = planned{class: req.Kind, key: key, req: req}
	}
	return plan
}

func serveSteps(d time.Duration) []step {
	steps := make([]step, len(serveRates))
	for k, r := range serveRates {
		steps[k] = step{rate: r, dur: d / time.Duration(len(serveRates))}
	}
	return steps
}

// newLoadRun plans serve_mix's steps over d against base.
func newLoadRun(base string, seed int64, d time.Duration, rec *obslog.SpanRecorder) *loadRun {
	steps := serveSteps(d)
	offsets, _ := schedule(steps)
	return &loadRun{base: base, plan: buildPlan(seed, len(offsets)), steps: steps, rec: rec}
}

// serveSetup starts the service 25 times, timing each start until
// /readyz answers, and returns the last one running.
func serveSetup(ctx context.Context, e *env) (*server, []float64, error) {
	var setups []float64
	var srv *server
	for i := 0; i < 25; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		var d time.Duration
		var err error
		srv, d, err = startServer(ctx, e, fmt.Sprintf("serve-%d", i))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return srv, setups, nil
}

func runServeMix(ctx context.Context, e *env) (*measurement, error) {
	m := newMeasurement()
	srv, setups, err := serveSetup(ctx, e)
	if err != nil {
		return nil, err
	}
	l := newLoadRun(srv.base, e.seed, e.dur, nil)
	// The server's peak RSS while it keeps up, at the end of the first
	// step: past capacity it grows with the backlog, which follows the
	// machine's speed more than the server's code.
	var rss float64
	var rssErr error
	l.onStep = func(k int) {
		if k == 1 {
			rss, rssErr = peakRSSMB(srv.pid())
		}
	}
	runErr := l.run(ctx, wallClock{})
	if err := errors.Join(runErr, rssErr, srv.stop()); err != nil {
		return nil, err
	}
	l.check(ctx, m)
	m.values["setup_s"] = median(setups)
	m.values["op_ms"] = median(l.stepLatencies(medianStep, ""))
	m.values["throughput_per_s"] = l.finishRate(goodputStep, goodputStep+1)
	m.values["peak_rss_mb"] = rss
	fmt.Fprintf(os.Stderr, "perfledger: serve_mix: %s\n", l.summary())
	return m, nil
}

// serveLayers runs the serve phase against a server that writes one
// Chrome trace file per job (and serves its CPU profile, when profile
// is set), joins each finished job's client span to the server's queue,
// run and checkpoint spans by the trace ID POST /jobs returned, and
// derives the serving layer metrics. With rec nil nothing is traced, on
// either side, and no layer metric is derived. It returns the median
// latency of the sub-saturation step.
func serveLayers(ctx context.Context, e *env, d time.Duration, rec *obslog.SpanRecorder, profile string, m *measurement) (float64, error) {
	traces := filepath.Join(e.work, "server-traces")
	name := "serve-plain"
	var args []string
	if rec != nil {
		name, args = "serve-traced", []string{"-trace-dir", traces}
	}
	if profile != "" {
		args = append(args, "-pprof")
	}
	srv, _, err := startServer(ctx, e, name, args...)
	if err != nil {
		return 0, err
	}
	l := newLoadRun(srv.base, e.seed, d, rec)
	profErr := make(chan error, 1)
	if profile != "" {
		// The profile covers the load's first whole seconds; it is fetched
		// on a third connection, which carries no load.
		go func() { profErr <- fetchProfile(ctx, srv.base, max(1, int(d.Seconds())), profile) }()
	} else {
		profErr <- nil
	}
	runErr := l.run(ctx, wallClock{})
	perr := <-profErr
	hc := newHTTPClient()
	snap, scrapeErr := scrape(ctx, hc, srv.base)
	hc.CloseIdleConnections()
	if err := errors.Join(runErr, perr, scrapeErr, srv.stop()); err != nil {
		return 0, err
	}
	l.check(ctx, m)
	if rec == nil {
		return median(l.stepLatencies(medianStep, "")), nil
	}

	// Server spans per finished job, joined by trace ID.
	queue, run := map[string][]float64{}, map[string][]float64{}
	var checkpoint []float64
	for i, r := range l.results {
		if r.outcome != outDone {
			continue
		}
		spans, err := jobSpans(filepath.Join(traces, r.id+".trace.json"), r.trace)
		m.op(err)
		if err != nil {
			continue
		}
		checkpoint = append(checkpoint, spans["checkpoint"]...)
		if r.step == medianStep {
			class := l.plan[i].class
			queue[class] = append(queue[class], spans["queue"]...)
			queue[""] = append(queue[""], spans["queue"]...)
			run[class] = append(run[class], spans["run"]...)
		}
	}

	// Client-side latency by class in the sub-saturation step.
	lat := map[string][]float64{}
	for i, r := range l.results {
		if r.step == medianStep {
			lat[l.plan[i].class] = append(lat[l.plan[i].class], r.latencyMs)
		}
	}
	var submit []float64
	for _, r := range l.results {
		if r.outcome != outUnsent {
			submit = append(submit, r.submitMs)
		}
	}
	v := m.values
	v["serve.submit_ms.p50"] = quantile(submit, 0.5)
	v["serve.submit_ms.p99"] = quantile(submit, 0.99)
	for _, class := range []string{"sim", "sweep", "campaign"} {
		v["serve.latency_ms."+class+".p50"] = quantile(lat[class], 0.5)
		v["serve.latency_ms."+class+".p99"] = quantile(lat[class], 0.99)
		v["serve.run_ms."+class+".p50"] = quantile(run[class], 0.5)
	}
	v["serve.queue_ms.p50"] = quantile(queue[""], 0.5)
	v["serve.queue_ms.p99"] = quantile(queue[""], 0.99)
	v["serve.residual_ms.sim"] = quantile(lat["sim"], 0.5) - quantile(queue["sim"], 0.5) - quantile(run["sim"], 0.5)
	v["serve.checkpoint_ms.p50"] = quantile(checkpoint, 0.5)
	for metric, route := range map[string]string{"post_jobs": "POST /jobs", "get_job": "GET /jobs/{id}"} {
		h := snap.Histograms[obs.LabeledName("serve.http_ms", obs.Label{Key: "route", Value: route})]
		if h.Count == 0 {
			return 0, fmt.Errorf("server recorded no %s requests", route)
		}
		// Server route times sit inside coarse buckets; the exact sum gives
		// the mean.
		v["serve.http_ms."+metric+".mean"] = h.Sum / float64(h.Count)
	}
	v["serve.capacity_per_s"] = l.capacity()
	v["serve.max_rate_ok"] = l.maxRateOK()
	v["load.lateness_ms.p99"] = quantile(l.lateMs, 0.99)
	v["load.watch_lag_ms.p99"] = quantile(l.sweepMs, 0.99)
	fmt.Fprintf(os.Stderr, "perfledger: serve phase: %s\n", l.summary())
	return median(l.stepLatencies(medianStep, "")), nil
}

// jobSpans reads one job's Chrome trace file and returns its span
// durations (ms) by name. Every span must carry the trace ID the client
// got from POST /jobs.
func jobSpans(path, trace string) (map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	spans := map[string][]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if got, _ := ev.Args["trace"].(string); got != trace {
			return nil, fmt.Errorf("%s: span %s has trace %q, the job was given %q", path, ev.Name, got, trace)
		}
		spans[ev.Name] = append(spans[ev.Name], ev.Dur/1e3)
	}
	if len(spans["queue"]) == 0 || len(spans["run"]) == 0 {
		return nil, fmt.Errorf("%s: no queue or run span", path)
	}
	return spans, nil
}

// fetchProfile saves the server's CPU profile over the next secs
// seconds.
func fetchProfile(ctx context.Context, base string, secs int, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, secs), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /debug/pprof/profile: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
