// Command usfleet coordinates a fault campaign across N usserve
// workers. It splits the campaign into its (arch × workload × site)
// shards, leases each shard to a worker over the job API, heartbeats
// the leases, retries failures behind capped exponential backoff with
// full jitter, circuit-breaks workers that keep failing, hedges
// straggler shards onto idle workers (first result wins, losers are
// cancelled), and appends every merged result to a durable checkpoint
// — a SIGKILLed coordinator restarted with the same flags resumes
// without re-running completed shards. The merged report is
// byte-identical to a single-process `usfault` run of the same
// campaign, for any worker count and any crash/retry interleaving.
//
//	usfleet -workers http://h1:8460,http://h2:8460 -window 16 -trials 4
//	usfleet ... -checkpoint fleet.ckpt -out report.txt
//	usfleet ... -status 127.0.0.1:8470    # /status, /metrics, /healthz
//
// The -status listener is the fleet's observability surface: /status
// serves the shard/lease/worker snapshot usstat -fleet renders,
// /metrics serves the obs registry (?format=prom for Prometheus).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ultrascalar/internal/atomicio"
	"ultrascalar/internal/fleet"
	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
)

func main() {
	workers := flag.String("workers", "http://127.0.0.1:8460", "comma-separated usserve worker base URLs")
	seed := flag.Int64("seed", 1, "campaign seed")
	window := flag.Int("window", 16, "station count n")
	cluster := flag.Int("cluster", 0, "hybrid cluster size C (0 = window/4)")
	trials := flag.Int("trials", 4, "injections per campaign cell")
	checkpoint := flag.String("checkpoint", "", "coordinator checkpoint path (fsynced per shard; empty = no resume)")
	out := flag.String("out", "", "write the merged report here (atomic; empty = stdout)")
	statusAddr := flag.String("status", "", "serve /status, /metrics and /healthz on this address (empty = off)")
	lease := flag.Duration("lease", 2*time.Minute, "per-shard lease TTL; past it the shard is re-dispatched")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "lease progress-poll interval")
	missed := flag.Int("missed-heartbeats", 3, "consecutive failed polls that declare a worker silently dead")
	hedgeAfter := flag.Duration("hedge-after", 0, "lease age past which an idle worker hedges the shard (0 = lease/2, negative = off)")
	leasesPer := flag.Int("leases-per-worker", 2, "concurrent leases offered to each worker")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "backoff base (full jitter, doubling)")
	retryMax := flag.Duration("retry-max", 10*time.Second, "backoff cap")
	breakerN := flag.Int("breaker-threshold", 3, "consecutive worker failures that trip its circuit breaker")
	breakerCool := flag.Duration("breaker-cooldown", 15*time.Second, "how long a tripped worker is rested")
	logPath := flag.String("log", "", "structured JSONL log file (\"-\" for stderr, empty = off)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "usfleet: "+format+"\n", args...)
		os.Exit(1)
	}

	var urls []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			urls = append(urls, w)
		}
	}
	if len(urls) == 0 {
		fail("-workers needs at least one URL")
	}

	reg := obs.NewRegistry()
	var logger *obslog.Logger
	if *logPath != "" {
		level, ok := obslog.LevelFromString(*logLevel)
		if !ok {
			fail("unknown log level %q (want debug, info, warn or error)", *logLevel)
		}
		var w io.Writer = os.Stderr
		if *logPath != "-" {
			f, err := os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fail("opening log: %v", err)
			}
			defer f.Close()
			w = f
		}
		logger = obslog.New(w, obslog.Options{Level: level, Clock: time.Now}) //uslint:allow detorder -- log timestamps are telemetry, never report input
	}

	coord, err := fleet.New(fleet.Config{
		Workers: urls,
		Campaign: fleet.CampaignSpec{
			Seed: *seed, Window: *window, Cluster: *cluster, Trials: *trials,
		},
		Checkpoint:       *checkpoint,
		LeaseTTL:         *lease,
		Heartbeat:        *heartbeat,
		MissedHeartbeats: *missed,
		HedgeAfter:       *hedgeAfter,
		LeasesPerWorker:  *leasesPer,
		Retry:            fleet.Policy{Base: *retryBase, Max: *retryMax},
		BreakerThreshold: *breakerN,
		BreakerCooldown:  *breakerCool,
		Metrics:          reg,
		Log:              logger,
	})
	if err != nil {
		fail("%v", err)
	}

	// SIGTERM/SIGINT stop the run cleanly: in-flight leases are
	// abandoned (their workers finish or time the jobs out on their
	// own), and everything already merged is in the checkpoint — the
	// next invocation resumes from it. Register before the status server
	// starts: a SIGTERM sent once /healthz answers must stop the run, not
	// kill the process with the default action.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()

	if *statusAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(coord.Status())
		})
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Query().Get("format") == "prom" {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				obs.WritePrometheus(w, reg.Peek(0))
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(struct {
				Manifest obs.Manifest `json:"manifest"`
				Snapshot obs.Snapshot `json:"snapshot"`
			}{obs.NewManifest("usfleet"), reg.Peek(0)})
		})
		srv := &http.Server{Addr: *statusAddr, Handler: mux}
		go func() {
			if serr := srv.ListenAndServe(); serr != nil && serr != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "usfleet: status server: %v\n", serr)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "usfleet: status on %s\n", *statusAddr)
	}

	fmt.Fprintf(os.Stderr, "usfleet: distributing campaign seed=%d window=%d trials=%d across %d worker(s)\n",
		*seed, *window, *trials, len(urls))
	rep, err := coord.Run(ctx)
	if err != nil {
		fail("%v", err)
	}
	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		fail("rendering report: %v", err)
	}
	if *out != "" {
		if err := atomicio.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "usfleet: report written to %s\n", *out)
	} else {
		fmt.Print(b.String())
	}
}
