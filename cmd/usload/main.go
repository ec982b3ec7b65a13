// Command usload drives a live usserve with an open-loop request
// stream and accounts for every outcome. Open loop means arrivals do
// not wait for completions — the generator keeps offering at the
// configured rate even while the service backs up, which is the only
// load shape that actually exercises admission control: a closed-loop
// client self-throttles the moment the service slows down and never
// pushes it past saturation (the coordinated-omission trap).
//
// The request mix over the three job classes (sim, sweep, campaign) is
// deterministic: a seeded splitmix64 stream picks each request's class
// and configuration, so two invocations with the same flags offer
// byte-identical request sequences. That determinism is what makes the
// chaos gate's byte-identity check meaningful — a quiet run and an
// overloaded run can be compared response by response, keyed by
// request configuration.
//
// Outputs:
//   - per-request JSONL (-out): class, config key, outcome, latency,
//     cache flag, and the SHA-256 of the report text;
//   - a summary JSON (-summary): per-class latency quantiles, goodput,
//     shed/timeout accounting, peak in-flight, server metric deltas;
//   - its own metrics registry, emitted as Prometheus text (-prom) and
//     validated with the same parser the CI gates use.
//
// Gates (each failing the process): -min-peak (the run must actually
// reach N concurrent requests), -queue-delay-p99-max (server-side
// queue delay quantile, scraped from /metrics), -verify-server (the
// server's admitted/shed counter deltas must equal the client's
// accepted/shed tallies — exact conservation, valid when usload is the
// only client), and -baseline (non-shed responses must be
// byte-identical, by report SHA-256, to a previous run's JSONL).
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ultrascalar/internal/atomicio"
	"ultrascalar/internal/fleet"
	"ultrascalar/internal/obs"
	"ultrascalar/internal/serve"
)

// splitmix64 is the deterministic stream behind the request mix: tiny,
// seedable, and identical across runs and platforms.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) intn(n int) int {
	return int(r.next() % uint64(n))
}

// mixEntry is one job class's weight in the request mix.
type mixEntry struct {
	class  string
	weight int
}

func parseMix(s string) ([]mixEntry, error) {
	var mix []mixEntry
	total := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, w, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not class=weight", part)
		}
		switch name {
		case "sim", "sweep", "campaign":
		default:
			return nil, fmt.Errorf("unknown job class %q (want sim, sweep or campaign)", name)
		}
		n, err := strconv.Atoi(w)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("mix weight %q is not a non-negative integer", w)
		}
		mix = append(mix, mixEntry{class: name, weight: n})
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("mix has zero total weight")
	}
	return mix, nil
}

// pickClass draws one class from the weighted mix.
func pickClass(mix []mixEntry, rng *splitmix64) string {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	n := rng.intn(total)
	for _, m := range mix {
		if n < m.weight {
			return m.class
		}
		n -= m.weight
	}
	return mix[len(mix)-1].class
}

// The deterministic parameter pools each class draws from.
var (
	loadArchs     = []string{"ultra1", "ultra2", "hybrid"}
	loadWorkloads = []string{"fib", "vecsum", "gcd"}
	loadSites     = []string{"result-bit", "operand-bit", "merge-bit", "ready-stuck1", "ready-stuck0", "drop-forward", "dup-forward"}
)

// planned is one pre-generated request: the wire request plus the
// configuration key baseline comparison joins on.
type planned struct {
	class string
	key   string
	req   serve.JobRequest
}

// buildPlan generates the full deterministic request sequence.
func buildPlan(total int, mix []mixEntry, seed int64, window, trials int, jobTimeout time.Duration) []planned {
	rng := &splitmix64{s: uint64(seed)}
	plan := make([]planned, total)
	for i := range plan {
		class := pickClass(mix, rng)
		req := serve.JobRequest{Kind: class, Window: window, TimeoutMs: jobTimeout.Milliseconds()}
		var key string
		switch class {
		case "sim":
			req.Arch = loadArchs[rng.intn(len(loadArchs))]
			req.Workload = loadWorkloads[rng.intn(len(loadWorkloads))]
			key = fmt.Sprintf("sim/%s/n%d/%s", req.Arch, window, req.Workload)
		case "sweep":
			key = fmt.Sprintf("sweep/n%d", window)
		case "campaign":
			req.Seed = seed
			req.Trials = trials
			req.Archs = []string{loadArchs[rng.intn(len(loadArchs))]}
			req.Sites = []string{loadSites[rng.intn(len(loadSites))]}
			req.Workloads = []string{loadWorkloads[rng.intn(len(loadWorkloads))]}
			key = fmt.Sprintf("campaign/%s/n%d/%s/%s/s%d/t%d",
				req.Archs[0], window, req.Workloads[0], req.Sites[0], seed, trials)
		}
		plan[i] = planned{class: class, key: key, req: req}
	}
	return plan
}

// record is one request's JSONL line.
type record struct {
	Index      int     `json:"i"`
	Class      string  `json:"class"`
	Key        string  `json:"key"`
	Outcome    string  `json:"outcome"`
	LatencyMs  float64 `json:"latency_ms"`
	JobID      string  `json:"job_id,omitempty"`
	Cached     bool    `json:"cached,omitempty"`
	ReportSHA  string  `json:"report_sha256,omitempty"`
	ErrorKind  string  `json:"error_kind,omitempty"`
	RetryAfter float64 `json:"retry_after_s,omitempty"`
}

// Outcome taxonomy: every offered request lands in exactly one bucket.
const (
	outDone     = "done"     // job finished, report in hand
	outShed     = "shed"     // 503 overload rejection (the admission controller working)
	outRejected = "rejected" // other backpressure: draining, breaker-open
	outFailed   = "failed"   // job accepted but finished failed/canceled/interrupted
	outTimeout  = "timeout"  // accepted but no terminal state within -wait
	outError    = "error"    // transport or protocol error
)

var latencyMsBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// classSummary is one job class's slice of the summary document.
type classSummary struct {
	Offered int     `json:"offered"`
	Done    int     `json:"done"`
	Shed    int     `json:"shed"`
	Other   int     `json:"other"`
	P50Ms   float64 `json:"p50_ms"`
	P90Ms   float64 `json:"p90_ms"`
	P99Ms   float64 `json:"p99_ms"`
}

// serverDelta is the server-side counter movement over the run.
type serverDelta struct {
	Submitted   int64 `json:"submitted"`
	Shed        int64 `json:"shed"`
	Done        int64 `json:"done"`
	Failed      int64 `json:"failed"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Quarantines int64 `json:"cache_quarantines"`
}

type summaryDoc struct {
	Target             string                  `json:"target"`
	Offered            int                     `json:"offered"`
	Accepted           int                     `json:"accepted"`
	Done               int                     `json:"done"`
	Shed               int                     `json:"shed"`
	Rejected           int                     `json:"rejected"`
	Failed             int                     `json:"failed"`
	TimedOut           int                     `json:"timed_out"`
	Errors             int                     `json:"errors"`
	CachedResponses    int                     `json:"cached_responses"`
	ElapsedS           float64                 `json:"elapsed_s"`
	GoodputPerS        float64                 `json:"goodput_per_s"`
	PeakInFlight       int64                   `json:"peak_in_flight"`
	PerClass           map[string]classSummary `json:"per_class"`
	ServerDelta        *serverDelta            `json:"server_delta,omitempty"`
	QueueDelayP99Ms    float64                 `json:"queue_delay_p99_ms"`
	BaselineCompared   int                     `json:"baseline_compared,omitempty"`
	BaselineMismatches int                     `json:"baseline_mismatches,omitempty"`
}

// metricsSnapshot scrapes the target's /metrics JSON document.
func metricsSnapshot(ctx context.Context, hc *http.Client, target string) (obs.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/metrics", nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return obs.Snapshot{}, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var doc struct {
		Snapshot obs.Snapshot `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return obs.Snapshot{}, fmt.Errorf("decoding /metrics: %w", err)
	}
	return doc.Snapshot, nil
}

// validateServerProm scrapes the Prometheus exposition and runs it
// through the obs validator — the serving stack's contract that its
// exposition stays machine-parseable under load.
func validateServerProm(ctx context.Context, hc *http.Client, target string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/metrics?format=prom", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := fmt.Fprint(&buf, readAll(resp)); err != nil {
		return err
	}
	return obs.ValidatePrometheus([]byte(buf.String()))
}

func readAll(resp *http.Response) string {
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return b.String()
}

// loadBaseline reads a previous run's JSONL and returns the key →
// report-SHA map of its completed requests. A key mapping to two
// different SHAs inside the baseline itself is a determinism failure.
func loadBaseline(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("baseline line %q: %w", line, err)
		}
		if r.Outcome != outDone || r.ReportSHA == "" {
			continue
		}
		if prev, ok := base[r.Key]; ok && prev != r.ReportSHA {
			return nil, fmt.Errorf("baseline is internally inconsistent: key %s has SHAs %s and %s", r.Key, prev, r.ReportSHA)
		}
		base[r.Key] = r.ReportSHA
	}
	return base, sc.Err()
}

// runRequest offers one planned request, follows an accepted job to a
// terminal state, and records the outcome. rec is a named result so the
// deferred latency stamp lands in the value the caller receives; set on
// a local after a return, it would be lost.
func runRequest(ctx context.Context, cl *fleet.Client, i int, p planned, wait, poll time.Duration) (rec record) {
	rec = record{Index: i, Class: p.class, Key: p.key}
	start := time.Now() //uslint:allow detorder -- latency measurement is this tool's purpose
	defer func() {
		rec.LatencyMs = float64(time.Since(start).Nanoseconds()) / 1e6 //uslint:allow detorder -- latency measurement is this tool's purpose
	}()

	job, err := cl.Submit(ctx, p.req)
	if err != nil {
		herr, ok := err.(*fleet.HTTPError)
		switch {
		case ok && herr.Kind == serve.KindShed:
			rec.Outcome, rec.ErrorKind = outShed, herr.Kind
			rec.RetryAfter = herr.RetryAfter.Seconds()
		case ok && herr.Backpressure():
			rec.Outcome, rec.ErrorKind = outRejected, herr.Kind
			rec.RetryAfter = herr.RetryAfter.Seconds()
		case ok:
			rec.Outcome, rec.ErrorKind = outError, herr.Kind
		default:
			rec.Outcome, rec.ErrorKind = outError, "transport"
		}
		return rec
	}
	rec.JobID = job.ID
	deadline := start.Add(wait)
	for {
		if time.Now().After(deadline) { //uslint:allow detorder -- client-side wait bound, not report input
			rec.Outcome = outTimeout
			cctx, ccancel := context.WithTimeout(context.Background(), 5*time.Second)
			cl.Cancel(cctx, job.ID)
			ccancel()
			return rec
		}
		time.Sleep(poll)
		cur, err := cl.Job(ctx, job.ID)
		if err != nil {
			continue // transient poll failure; the deadline bounds us
		}
		switch cur.State {
		case serve.StateDone:
			sum := sha256.Sum256([]byte(cur.Report))
			rec.Outcome = outDone
			rec.Cached = cur.Cached
			rec.ReportSHA = hex.EncodeToString(sum[:])
			return rec
		case serve.StateFailed, serve.StateCanceled, serve.StateInterrupted:
			rec.Outcome = outFailed
			rec.ErrorKind = cur.ErrorKind
			return rec
		}
	}
}

func main() {
	target := flag.String("target", "http://127.0.0.1:8460", "usserve base URL")
	requests := flag.Int("requests", 0, "burst mode: offer this many requests at once (ignored when -rate > 0)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in requests/second")
	duration := flag.Duration("duration", 10*time.Second, "open-loop offered-load duration (with -rate)")
	mixFlag := flag.String("mix", "sim=12,sweep=3,campaign=1", "request mix as class=weight, comma-separated")
	seed := flag.Int64("seed", 1, "mix/config stream seed; same seed = byte-identical request plan")
	window := flag.Int("window", 6, "station count n for generated jobs")
	trials := flag.Int("trials", 1, "injections per campaign cell for generated campaign jobs")
	jobTimeout := flag.Duration("job-timeout", 30*time.Second, "server-side deadline attached to each job")
	wait := flag.Duration("wait", 60*time.Second, "client-side wait for one accepted job to finish")
	poll := flag.Duration("poll", 25*time.Millisecond, "job status poll interval")
	outPath := flag.String("out", "", "per-request JSONL output (empty = off)")
	summaryPath := flag.String("summary", "", "summary JSON output (atomic; empty = stdout)")
	promPath := flag.String("prom", "", "write usload's own metrics as Prometheus text here (validated; empty = off)")
	baselinePath := flag.String("baseline", "", "previous run's JSONL; completed responses must match its report SHAs key-for-key")
	minPeak := flag.Int("min-peak", 0, "gate: fail unless this many requests were in flight simultaneously")
	queueP99Max := flag.Duration("queue-delay-p99-max", 0, "gate: fail if the server's queue-delay P99 exceeds this (0 = off)")
	verifyServer := flag.Bool("verify-server", false, "gate: server submitted/shed counter deltas must equal client accepted/shed tallies (requires exclusive access)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "usload: "+format+"\n", args...)
		os.Exit(1)
	}

	mix, err := parseMix(*mixFlag)
	if err != nil {
		fail("-mix: %v", err)
	}
	total := *requests
	if *rate > 0 {
		total = int(math.Ceil(*rate * duration.Seconds()))
	}
	if total <= 0 {
		fail("nothing to offer: set -requests or -rate with -duration")
	}
	var baseline map[string]string
	if *baselinePath != "" {
		if baseline, err = loadBaseline(*baselinePath); err != nil {
			fail("loading baseline: %v", err)
		}
	}

	plan := buildPlan(total, mix, *seed, *window, *trials, *jobTimeout)

	cl := fleet.NewClient(*target)
	cl.HTTP = &http.Client{
		Timeout: *wait,
		Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
		},
	}

	reg := obs.NewRegistry()
	var (
		mu       sync.Mutex
		out      *bufio.Writer
		outFile  *os.File
		inflight atomic.Int64
		peak     atomic.Int64
		records  = make([]record, total)
	)
	if *outPath != "" {
		outFile, err = os.Create(*outPath)
		if err != nil {
			fail("opening -out: %v", err)
		}
		out = bufio.NewWriterSize(outFile, 256<<10)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	preSnap, preErr := metricsSnapshot(ctx, cl.HTTP, *target)
	if *verifyServer && preErr != nil {
		fail("-verify-server needs a scrapeable target: %v", preErr)
	}

	runOne := func(i int) record {
		cur := inflight.Add(1)
		for {
			prev := peak.Load()
			if cur <= prev || peak.CompareAndSwap(prev, cur) {
				break
			}
		}
		defer inflight.Add(-1)
		return runRequest(ctx, cl, i, plan[i], *wait, *poll)
	}

	finish := func(i int, rec record) {
		reg.Counter(obs.LabeledName("usload.requests",
			obs.Label{Key: "class", Value: rec.Class},
			obs.Label{Key: "outcome", Value: rec.Outcome})).Inc()
		reg.Histogram(obs.LabeledName("usload.latency_ms",
			obs.Label{Key: "class", Value: rec.Class}), latencyMsBounds).Observe(rec.LatencyMs)
		mu.Lock()
		records[i] = rec
		if out != nil {
			line, _ := json.Marshal(rec)
			out.Write(line)
			out.WriteByte('\n')
		}
		mu.Unlock()
	}

	mode := fmt.Sprintf("burst of %d", total)
	if *rate > 0 {
		mode = fmt.Sprintf("%.0f req/s for %s (%d requests)", *rate, *duration, total)
	}
	fmt.Fprintf(os.Stderr, "usload: offering %s against %s (mix %s, seed %d)\n", mode, *target, *mixFlag, *seed)

	wallStart := time.Now() //uslint:allow detorder -- run-length measurement, not report input
	var wg sync.WaitGroup
	if *rate > 0 {
		interval := time.Duration(float64(time.Second) / *rate)
		ticker := time.NewTicker(interval)
		for i := 0; i < total; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				finish(i, runOne(i))
			}(i)
			if i != total-1 {
				<-ticker.C
			}
		}
		ticker.Stop()
	} else {
		for i := 0; i < total; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				finish(i, runOne(i))
			}(i)
		}
	}
	wg.Wait()
	elapsed := time.Since(wallStart) //uslint:allow detorder -- run-length measurement, not report input

	if out != nil {
		if err := out.Flush(); err != nil {
			fail("flushing -out: %v", err)
		}
		if err := outFile.Close(); err != nil {
			fail("closing -out: %v", err)
		}
	}

	// Tally.
	doc := summaryDoc{
		Target: *target, Offered: total,
		ElapsedS: elapsed.Seconds(), PeakInFlight: peak.Load(),
		PerClass: map[string]classSummary{},
	}
	baselineFailures := []string{}
	for _, rec := range records {
		cs := doc.PerClass[rec.Class]
		cs.Offered++
		switch rec.Outcome {
		case outDone:
			doc.Done++
			cs.Done++
			if rec.Cached {
				doc.CachedResponses++
			}
			if baseline != nil {
				if want, ok := baseline[rec.Key]; ok {
					doc.BaselineCompared++
					if want != rec.ReportSHA {
						doc.BaselineMismatches++
						if len(baselineFailures) < 5 {
							baselineFailures = append(baselineFailures,
								fmt.Sprintf("%s: got %.12s want %.12s", rec.Key, rec.ReportSHA, want))
						}
					}
				}
			}
		case outShed:
			doc.Shed++
			cs.Shed++
		case outRejected:
			doc.Rejected++
			cs.Other++
		case outFailed:
			doc.Failed++
			cs.Other++
		case outTimeout:
			doc.TimedOut++
			cs.Other++
		default:
			doc.Errors++
			cs.Other++
		}
		doc.PerClass[rec.Class] = cs
	}
	doc.Accepted = doc.Done + doc.Failed + doc.TimedOut
	if elapsed > 0 {
		doc.GoodputPerS = float64(doc.Done) / elapsed.Seconds()
	}
	snap := reg.Peek(0)
	for name, hv := range snap.Histograms {
		base, labels := obs.SplitLabeledName(name)
		if base != "usload.latency_ms" || len(labels) != 1 {
			continue
		}
		cs := doc.PerClass[labels[0].Value]
		cs.P50Ms, cs.P90Ms, cs.P99Ms = hv.Quantile(0.5), hv.Quantile(0.9), hv.Quantile(0.99)
		doc.PerClass[labels[0].Value] = cs
	}

	// Server-side scrape: counter deltas, queue-delay quantile, and a
	// validated Prometheus exposition.
	postSnap, postErr := metricsSnapshot(ctx, cl.HTTP, *target)
	if postErr == nil && preErr == nil {
		d := &serverDelta{
			Submitted:   postSnap.Counters["serve.jobs_submitted"] - preSnap.Counters["serve.jobs_submitted"],
			Shed:        postSnap.Counters["serve.shed"] - preSnap.Counters["serve.shed"],
			Done:        postSnap.Counters["serve.jobs_done"] - preSnap.Counters["serve.jobs_done"],
			Failed:      postSnap.Counters["serve.jobs_failed"] - preSnap.Counters["serve.jobs_failed"],
			CacheHits:   postSnap.Counters["serve.cache.hits"] - preSnap.Counters["serve.cache.hits"],
			CacheMisses: postSnap.Counters["serve.cache.misses"] - preSnap.Counters["serve.cache.misses"],
			Quarantines: postSnap.Counters["serve.cache.quarantines"] - preSnap.Counters["serve.cache.quarantines"],
		}
		doc.ServerDelta = d
		if hv, ok := postSnap.Histograms["serve.queue_delay_ms"]; ok {
			doc.QueueDelayP99Ms = hv.Quantile(0.99)
		}
	} else if *verifyServer {
		fail("-verify-server: post-run scrape failed: %v", postErr)
	}
	if err := validateServerProm(ctx, cl.HTTP, *target); err != nil {
		fail("server Prometheus exposition invalid: %v", err)
	}

	// usload's own exposition must validate too.
	var promBuf strings.Builder
	if err := obs.WritePrometheus(&promBuf, snap); err != nil {
		fail("rendering metrics: %v", err)
	}
	if err := obs.ValidatePrometheus([]byte(promBuf.String())); err != nil {
		fail("own Prometheus exposition invalid: %v", err)
	}
	if *promPath != "" {
		if err := atomicio.WriteFile(*promPath, []byte(promBuf.String()), 0o644); err != nil {
			fail("%v", err)
		}
	}

	summary, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fail("encoding summary: %v", err)
	}
	summary = append(summary, '\n')
	if *summaryPath != "" {
		if err := atomicio.WriteFile(*summaryPath, summary, 0o644); err != nil {
			fail("%v", err)
		}
	} else {
		os.Stdout.Write(summary)
	}

	classes := make([]string, 0, len(doc.PerClass))
	for c := range doc.PerClass {
		classes = append(classes, c) //uslint:allow detorder -- sorted before rendering
	}
	sort.Strings(classes)
	for _, c := range classes {
		cs := doc.PerClass[c]
		fmt.Fprintf(os.Stderr, "usload: %-8s offered=%d done=%d shed=%d other=%d p50=%.1fms p99=%.1fms\n",
			c, cs.Offered, cs.Done, cs.Shed, cs.Other, cs.P50Ms, cs.P99Ms)
	}
	fmt.Fprintf(os.Stderr, "usload: %d offered, %d done (%d cached), %d shed, %d rejected, %d failed, %d timed out, %d errors; peak in-flight %d; goodput %.1f/s\n",
		doc.Offered, doc.Done, doc.CachedResponses, doc.Shed, doc.Rejected, doc.Failed, doc.TimedOut, doc.Errors, doc.PeakInFlight, doc.GoodputPerS)

	// Gates.
	exitCode := 0
	gate := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "usload: GATE FAILED: "+format+"\n", args...)
		exitCode = 1
	}
	if *minPeak > 0 && doc.PeakInFlight < int64(*minPeak) {
		gate("peak in-flight %d < required %d — the run never reached the intended concurrency", doc.PeakInFlight, *minPeak)
	}
	if *queueP99Max > 0 && doc.QueueDelayP99Ms > float64(queueP99Max.Milliseconds()) {
		gate("server queue-delay P99 %.1fms > bound %v", doc.QueueDelayP99Ms, *queueP99Max)
	}
	if *verifyServer {
		d := doc.ServerDelta
		if d == nil {
			gate("-verify-server: no server delta available")
		} else {
			if d.Submitted != int64(doc.Accepted) {
				gate("conservation: server admitted %d, client saw %d accepted", d.Submitted, doc.Accepted)
			}
			if d.Shed != int64(doc.Shed) {
				gate("conservation: server shed %d, client saw %d sheds", d.Shed, doc.Shed)
			}
		}
	}
	if doc.BaselineMismatches > 0 {
		gate("%d/%d responses diverge from baseline:\n  %s",
			doc.BaselineMismatches, doc.BaselineCompared, strings.Join(baselineFailures, "\n  "))
	}
	if baseline != nil && doc.BaselineMismatches == 0 {
		fmt.Fprintf(os.Stderr, "usload: %d completed responses byte-identical to baseline\n", doc.BaselineCompared)
	}
	os.Exit(exitCode)
}
