package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ultrascalar/internal/fleet"
	"ultrascalar/internal/serve"
)

// TestRunRequestLatency checks that each request's recorded latency
// covers the time the server took, on both the accepted-job path and
// the early-return rejection path.
func TestRunRequestLatency(t *testing.T) {
	const sleep = 30 * time.Millisecond
	var shedNext atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(sleep)
		if shedNext.Load() {
			http.Error(w, `{"error":{"kind":"shed","message":"queue full"}}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"id":"job-000001","state":"queued"}`))
	})
	mux.HandleFunc("GET /jobs/job-000001", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"job-000001","state":"done","report":"ok\n"}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx := context.Background()
	cl := fleet.NewClient(srv.URL)
	p := planned{class: "sim", key: "k", req: serve.JobRequest{Kind: "sim"}}
	done := runRequest(ctx, cl, 3, p, 10*time.Second, time.Millisecond)
	if done.Outcome != outDone || done.Index != 3 || done.ReportSHA == "" {
		t.Fatalf("accepted job recorded as %+v", done)
	}
	shedNext.Store(true)
	shed := runRequest(ctx, cl, 4, p, 10*time.Second, time.Millisecond)
	if shed.Outcome != outShed {
		t.Fatalf("shed request recorded as %+v", shed)
	}
	for _, rec := range []record{done, shed} {
		if rec.LatencyMs <= 0 || rec.LatencyMs < float64(sleep.Milliseconds()) {
			t.Errorf("%s request: latency_ms = %v, want >= %d", rec.Outcome, rec.LatencyMs, sleep.Milliseconds())
		}
	}
}
