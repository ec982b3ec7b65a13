// Command usserve runs the simulator as an HTTP service: simulations,
// IPC sweeps and fault campaigns submitted as managed jobs with
// per-request deadlines, bounded-queue admission control plus a
// CoDel-style queue-delay controller that sheds job classes in
// priority order under sustained overload (-admit-target,
// -admit-interval), a per-config-class circuit breaker, an optional
// content-addressed result cache with SHA-256 integrity checking
// (-cache-dir), graceful drain on SIGTERM, and crash-safe job
// recovery — a job interrupted by a kill resumes from its checkpoint on
// restart and produces a byte-identical report.
//
// Endpoints (see the README "Serving" section): /healthz, /readyz,
// /jobs (POST submit, GET list), /jobs/{id} (GET status, DELETE
// cancel), /jobs/{id}/report, /jobs/{id}/progress (?stream=1 for
// NDJSON), /metrics (?format=prom for Prometheus text exposition), and
// /debug/pprof/ behind -pprof.
//
// Telemetry flags: -log writes structured JSONL (one trace ID per job
// across every span of its lifecycle), -trace-dir exports a Chrome
// trace-event file per finished job, -pprof mounts the profiler.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ultrascalar/internal/atomicio"
	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
	"ultrascalar/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8460", "listen address")
	dir := flag.String("dir", "usserve-state", "state directory (job records + campaign checkpoints)")
	queueCap := flag.Int("queue", 16, "admission queue capacity; beyond it submissions are shed")
	workers := flag.Int("workers", 2, "concurrent job executors")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-job deadline")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "cap on client-requested deadlines")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits before hard-canceling jobs")
	breakerN := flag.Int("breaker-threshold", 3, "consecutive livelock/timeout failures that trip a config class")
	breakerCool := flag.Duration("breaker-cooldown", 30*time.Second, "how long a tripped class rejects jobs")
	admitTarget := flag.Duration("admit-target", 0, "queue-delay target for adaptive admission (0 = default 100ms, negative = hard queue bound only)")
	admitInterval := flag.Duration("admit-interval", 0, "sustained-overload interval before shedding escalates a class (0 = default 1s)")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory (empty = caching off)")
	injectFaults := flag.String("inject-disk-faults", "", "inject storage faults, e.g. enospc=7,fsync=11,dirsync=13 (every Nth op fails; testing only)")
	logPath := flag.String("log", "", "structured JSONL log file (\"-\" for stderr, empty = off)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	traceDir := flag.String("trace-dir", "", "directory for per-job Chrome trace-event files (empty = off)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "usserve: "+format+"\n", args...)
		os.Exit(1)
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
	var spans *obslog.SpanRecorder
	if logger != nil || *traceDir != "" {
		spans = obslog.NewSpanRecorder(obslog.SpanOptions{Logger: logger, Metrics: reg, Clock: time.Now}) //uslint:allow detorder -- span timing is what tracing measures
	}

	if *injectFaults != "" {
		var f atomicio.Faults
		for _, part := range strings.Split(*injectFaults, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
			n, perr := strconv.Atoi(val)
			if !ok || perr != nil || n < 0 {
				fail("bad -inject-disk-faults entry %q (want name=N)", part)
			}
			switch name {
			case "enospc":
				f.WriteENOSPCEvery = n
			case "fsync":
				f.SyncFailEvery = n
			case "dirsync":
				f.DirSyncFailEvery = n
			default:
				fail("unknown fault point %q (want enospc, fsync or dirsync)", name)
			}
		}
		atomicio.SetFaults(f)
		fmt.Fprintf(os.Stderr, "usserve: CHAOS: injecting storage faults (%s)\n", *injectFaults)
	}

	mgr, err := serve.New(serve.Config{
		Dir:              *dir,
		QueueCap:         *queueCap,
		Workers:          *workers,
		AdmitTarget:      *admitTarget,
		AdmitInterval:    *admitInterval,
		CacheDir:         *cacheDir,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		BreakerThreshold: *breakerN,
		BreakerCooldown:  *breakerCool,
		Metrics:          reg,
		Log:              logger,
		Spans:            spans,
		TraceDir:         *traceDir,
		EnablePprof:      *enablePprof,
	})
	if err != nil {
		fail("%v", err)
	}

	// Register for signals before serving: once /readyz answers, a
	// SIGTERM must drain, not kill the process with the default action.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	srv := &http.Server{Addr: *addr, Handler: mgr.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	fmt.Fprintf(os.Stderr, "usserve: serving on %s (state in %s)\n", *addr, *dir)
	select {
	case err := <-errc:
		fail("server: %v", err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "usserve: %v: draining (up to %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		mgr.Drain(ctx)
		cancel()
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "usserve: shutdown: %v\n", err)
		}
		shutCancel()
		fmt.Fprintln(os.Stderr, "usserve: drained")
	}
}
