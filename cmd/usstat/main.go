// Command usstat is the operator's view of a live usserve instance: it
// polls the HTTP surface and renders job progress, queue depth, breaker
// states and per-route latency quantiles as a compact text dashboard.
//
//	usstat                          one status snapshot from the default address
//	usstat -watch 2s                repaint every two seconds until interrupted
//	usstat -job job-000003          follow one job's shard progress (streams NDJSON)
//	usstat -fleet -addr http://host:8470
//	                                render a usfleet coordinator's shard/lease/
//	                                worker dashboard (point -addr at -status)
//	usstat -validate-prom           scrape /metrics?format=prom and check the
//	                                exposition against the obs schema; exit 1 on
//	                                any violation (the CI smoke test's gate)
//
// Long-lived modes (-watch, -job, -fleet with -watch) survive server
// restarts: a lost connection is retried behind the fleet's capped
// exponential backoff with full jitter, with a reconnect notice on
// stderr, instead of exiting mid-campaign.
//
// usstat is read-only: it never submits, cancels or mutates anything,
// so it is safe to point at a production server mid-campaign.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"ultrascalar/internal/fleet"
	"ultrascalar/internal/obs"
)

// job mirrors the serve.Job fields usstat renders (decoded loosely so
// the tool keeps working as the server's record grows fields).
type job struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	Trace string `json:"trace"`
	Error string `json:"error,omitempty"`
}

// progress mirrors serve.Progress.
type progress struct {
	ID          string `json:"id"`
	Trace       string `json:"trace"`
	State       string `json:"state"`
	ShardsDone  int    `json:"shards_done"`
	ShardsTotal int    `json:"shards_total"`
}

// metricsDoc is the shape of GET /metrics.
type metricsDoc struct {
	Snapshot obs.Snapshot `json:"snapshot"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8460", "usserve base URL (or usfleet -status URL with -fleet)")
	watch := flag.Duration("watch", 0, "repaint the status every interval (0 = once)")
	jobID := flag.String("job", "", "stream one job's shard progress instead of the dashboard")
	fleetView := flag.Bool("fleet", false, "render a usfleet coordinator dashboard instead of a worker's")
	validateProm := flag.Bool("validate-prom", false, "scrape /metrics?format=prom, validate the exposition, print it and exit")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request HTTP timeout")
	flag.Parse()

	client := &http.Client{Timeout: *timeout}
	base := strings.TrimRight(*addr, "/")

	switch {
	case *validateProm:
		if err := runValidateProm(client, base); err != nil {
			fatal(err)
		}
	case *jobID != "":
		if err := followJob(client, base, *jobID, newReconnector()); err != nil {
			fatal(err)
		}
	case *fleetView:
		watchLoop(*watch, func() error { return printFleet(client, base) })
	default:
		watchLoop(*watch, func() error { return printStatus(client, base) })
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "usstat:", err)
	os.Exit(1)
}

// reconnector drives usstat's reconnect loops with the fleet's retry
// policy: capped exponential backoff with full jitter. The jitter
// source is seeded from the PID so concurrently-watching operators
// don't redial a restarted server in lockstep; determinism of the
// observed system is untouched — this only schedules reads.
type reconnector struct {
	policy  fleet.Policy
	rnd     func() float64
	attempt int
}

func newReconnector() *reconnector {
	src := rand.New(rand.NewSource(int64(os.Getpid())))
	return &reconnector{policy: fleet.DefaultPolicy, rnd: src.Float64}
}

// pause sleeps out the next backoff step, printing the notice that
// makes the wait visible to the operator.
func (r *reconnector) pause(err error) {
	wait := r.policy.Backoff(r.attempt, r.rnd)
	r.attempt++
	fmt.Fprintf(os.Stderr, "usstat: connection lost (%v); retrying in %s\n",
		err, wait.Round(time.Millisecond))
	time.Sleep(wait)
}

// recovered resets the backoff after a successful exchange, announcing
// the reconnect if one happened.
func (r *reconnector) recovered() {
	if r.attempt > 0 {
		fmt.Fprintln(os.Stderr, "usstat: reconnected")
		r.attempt = 0
	}
}

// watchLoop renders frames at the watch interval. One-shot mode
// (interval <= 0) fails hard; watch mode reconnects with backoff so a
// worker restart mid-campaign doesn't kill the operator's dashboard.
func watchLoop(interval time.Duration, frame func() error) {
	r := newReconnector()
	for {
		if err := frame(); err != nil {
			if interval <= 0 {
				fatal(err)
			}
			r.pause(err)
			continue
		}
		r.recovered()
		if interval <= 0 {
			return
		}
		time.Sleep(interval)
		fmt.Println()
	}
}

// get fetches path and decodes the JSON body into v, translating the
// server's error envelope into a readable failure.
func get(client *http.Client, base, path string, v any) error {
	resp, err := client.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error struct {
				Kind    string `json:"kind"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error.Kind != "" {
			return fmt.Errorf("GET %s: %s (%s)", path, e.Error.Message, e.Error.Kind)
		}
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}

// runValidateProm scrapes the Prometheus exposition, validates it
// against the obs schema and echoes it to stdout — CI's scrape gate.
func runValidateProm(client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics?format=prom")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics?format=prom: HTTP %d", resp.StatusCode)
	}
	if len(body) == 0 {
		fmt.Fprintln(os.Stderr, "usstat: exposition empty (server has no metrics registry)")
		return nil
	}
	if err := obs.ValidatePrometheus(body); err != nil {
		return fmt.Errorf("exposition invalid: %w", err)
	}
	os.Stdout.Write(body)
	fmt.Fprintln(os.Stderr, "usstat: exposition valid")
	return nil
}

// terminalState mirrors the serve job lifecycle's final states.
func terminalState(s string) bool {
	switch s {
	case "done", "failed", "canceled", "interrupted":
		return true
	}
	return false
}

// followJob streams one job's NDJSON progress, one line per change,
// until the job reaches a terminal state. A dropped stream (worker
// restart, network blip) reconnects with backoff and resumes; the
// first frame of a resumed stream repeats current state, so identical
// consecutive frames are deduplicated. A definitive HTTP rejection
// (404 and friends) stays fatal — retrying can't conjure the job.
func followJob(client *http.Client, base, id string, r *reconnector) error {
	// Streaming outlives any sane per-request timeout.
	streamClient := &http.Client{}
	var last progress
	var printed bool
	for {
		resp, err := streamClient.Get(base + "/jobs/" + id + "/progress?stream=1")
		if err != nil {
			r.pause(err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("GET /jobs/%s/progress: HTTP %d", id, resp.StatusCode)
		}
		r.recovered()
		sc := obs.NewLineScanner(resp.Body)
		for sc.Scan() {
			var p progress
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				resp.Body.Close()
				return fmt.Errorf("bad progress line %q: %w", sc.Text(), err)
			}
			if printed && p == last {
				continue
			}
			last, printed = p, true
			bar := renderBar(p.ShardsDone, p.ShardsTotal, 30)
			fmt.Printf("%s  %s  %s %d/%d shards  trace=%s\n",
				p.ID, p.State, bar, p.ShardsDone, p.ShardsTotal, p.Trace)
		}
		serr := sc.Err()
		resp.Body.Close()
		if printed && terminalState(last.State) {
			return nil
		}
		if serr == nil {
			serr = fmt.Errorf("stream ended before job %s finished", id)
		}
		r.pause(serr)
	}
}

// printFleet renders one usfleet coordinator frame from its /status
// endpoint: overall shard progress, failure-handling tallies, and the
// per-worker lease/breaker table.
func printFleet(client *http.Client, base string) error {
	var st fleet.Status
	if err := get(client, base, "/status", &st); err != nil {
		return err
	}
	bar := renderBar(st.ShardsDone, st.ShardsTotal, 30)
	fmt.Printf("fleet: %-8s %s %d/%d shards  resumed=%d\n",
		st.State, bar, st.ShardsDone, st.ShardsTotal, st.Resumed)
	fmt.Printf("recovery: retries=%d lease-expired=%d hedges=%d hedge-wins=%d\n",
		st.Retries, st.LeaseExpired, st.Hedges, st.HedgeWins)
	fmt.Printf("retry budget: dispatches=%d retries=%d slow-lane=%d\n",
		st.Dispatches, st.Retries, st.BudgetExhausted)
	if st.Err != "" {
		fmt.Printf("error: %s\n", st.Err)
	}
	fmt.Printf("  %-40s %-10s %7s %6s %8s\n", "worker", "breaker", "leases", "done", "retries")
	for _, w := range st.Workers {
		fmt.Printf("  %-40s %-10s %7d %6d %8d\n",
			w.URL, w.Breaker, w.ActiveLeases, w.Done, w.Retries)
	}
	return nil
}

// renderBar draws a fixed-width progress bar.
func renderBar(done, total, width int) string {
	if total <= 0 {
		return "[" + strings.Repeat("-", width) + "]"
	}
	fill := done * width / total
	if fill > width {
		fill = width
	}
	return "[" + strings.Repeat("#", fill) + strings.Repeat("-", width-fill) + "]"
}

// printStatus renders one dashboard frame: jobs by state, queue depth,
// non-closed breakers and per-route latency quantiles.
func printStatus(client *http.Client, base string) error {
	var jobs []job
	if err := get(client, base, "/jobs", &jobs); err != nil {
		return err
	}
	var md metricsDoc
	if err := get(client, base, "/metrics", &md); err != nil {
		return err
	}
	snap := md.Snapshot

	byState := map[string]int{}
	running := 0
	for _, j := range jobs {
		byState[j.State]++
		if j.State == "running" {
			running++
		}
	}
	states := make([]string, 0, len(byState))
	for s := range byState {
		states = append(states, s) //uslint:allow detorder -- sorted before rendering
	}
	sort.Strings(states)
	fmt.Printf("jobs: %d total", len(jobs))
	for _, s := range states {
		fmt.Printf("  %s=%d", s, byState[s])
	}
	fmt.Println()
	fmt.Printf("queue depth: %.0f   http in-flight: %.0f   shed: %d\n",
		snap.Gauges["serve.queue_depth"], snap.Gauges["serve.http_inflight"],
		snap.Counters["serve.shed"])

	// Adaptive admission: controller level, queue-delay quantiles, and
	// the per-class shed tallies — the overload story in one line each.
	if hv, ok := snap.Histograms["serve.queue_delay_ms"]; ok && hv.Count > 0 {
		fmt.Printf("admission: level=%.0f   queue delay (ms): n=%d P50=%.2f P90=%.2f P99=%.2f\n",
			snap.Gauges["serve.admit_level"], hv.Count,
			hv.Quantile(0.50), hv.Quantile(0.90), hv.Quantile(0.99))
	}
	var shedClasses []string
	for name := range snap.Counters {
		if baseName, _ := obs.SplitLabeledName(name); baseName == "serve.shed_class" {
			shedClasses = append(shedClasses, name) //uslint:allow detorder -- sorted before rendering
		}
	}
	sort.Strings(shedClasses)
	if len(shedClasses) > 0 {
		fmt.Print("sheds by class:")
		for _, name := range shedClasses {
			_, labels := obs.SplitLabeledName(name)
			for _, l := range labels {
				if l.Key == "class" {
					fmt.Printf("  %s=%d", l.Value, snap.Counters[name])
				}
			}
		}
		fmt.Println()
	}

	// Job-record journal appends, a write and an fsync each.
	if hv, ok := snap.Histograms["serve.persist_ms"]; ok && hv.Count > 0 {
		fmt.Printf("persist (ms): n=%d P50=%.3f P99=%.3f errors=%d\n", hv.Count,
			hv.Quantile(0.50), hv.Quantile(0.99), snap.Counters["serve.persist_errors"])
	}

	// Result cache, when the server runs one.
	if hits, ok := snap.Counters["serve.cache.hits"]; ok {
		fmt.Printf("cache: hits=%d misses=%d stores=%d quarantines=%d\n",
			hits, snap.Counters["serve.cache.misses"],
			snap.Counters["serve.cache.stores"], snap.Counters["serve.cache.quarantines"])
	}

	// Breakers: every serve.breaker_state gauge that is not closed (0).
	type breaker struct {
		class string
		state string
	}
	var breakers []breaker
	for name, v := range snap.Gauges {
		baseName, labels := obs.SplitLabeledName(name)
		if baseName != "serve.breaker_state" || v == 0 {
			continue
		}
		st := "half-open"
		if v == 2 {
			st = "open"
		}
		for _, l := range labels {
			if l.Key == "class" {
				breakers = append(breakers, breaker{class: l.Value, state: st}) //uslint:allow detorder -- sorted before rendering
			}
		}
	}
	sort.Slice(breakers, func(i, j int) bool { return breakers[i].class < breakers[j].class })
	if len(breakers) == 0 {
		fmt.Println("breakers: all closed")
	} else {
		fmt.Println("breakers:")
		for _, b := range breakers {
			fmt.Printf("  %-40s %s\n", b.class, b.state)
		}
	}

	// Route latency quantiles from the serve.http_ms{route=...} family.
	type route struct {
		name string
		hv   obs.HistogramValue
	}
	var routes []route
	for name, hv := range snap.Histograms {
		baseName, labels := obs.SplitLabeledName(name)
		if baseName != "serve.http_ms" || hv.Count == 0 {
			continue
		}
		for _, l := range labels {
			if l.Key == "route" {
				routes = append(routes, route{name: l.Value, hv: hv}) //uslint:allow detorder -- sorted before rendering
			}
		}
	}
	sort.Slice(routes, func(i, j int) bool { return routes[i].name < routes[j].name })
	if len(routes) > 0 {
		fmt.Println("route latency (ms):")
		fmt.Printf("  %-28s %8s %8s %8s %8s\n", "route", "n", "P50", "P90", "P99")
		for _, r := range routes {
			fmt.Printf("  %-28s %8d %8.2f %8.2f %8.2f\n", r.name, r.hv.Count,
				r.hv.Quantile(0.50), r.hv.Quantile(0.90), r.hv.Quantile(0.99))
		}
	}

	// Error taxonomy, if any rejections have been counted.
	var errKinds []string
	for name := range snap.Counters {
		if baseName, _ := obs.SplitLabeledName(name); baseName == "serve.errors" {
			errKinds = append(errKinds, name) //uslint:allow detorder -- sorted before rendering
		}
	}
	sort.Strings(errKinds)
	for _, name := range errKinds {
		_, labels := obs.SplitLabeledName(name)
		for _, l := range labels {
			if l.Key == "kind" {
				fmt.Printf("errors[%s]: %d\n", l.Value, snap.Counters[name])
			}
		}
	}
	return nil
}
