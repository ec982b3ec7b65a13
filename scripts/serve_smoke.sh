#!/usr/bin/env bash
# Serve smoke test: proves the crash-safe job-recovery story end to end,
# across real processes. Builds usserve, runs a reference campaign job to
# completion, then runs the same job on a fresh state directory, SIGTERMs
# the server mid-campaign (drain checkpoints the job and parks it as
# "interrupted"), restarts the server on the same state directory, and
# asserts the job resumes from its checkpoint (resumed_shards > 0) and
# the final report is byte-identical to the uninterrupted reference.
#
# The campaign size (window=256, trials=512) is calibrated to run a few
# seconds — long enough to SIGTERM mid-run from a shell, short enough
# for CI.
#
# The run also smokes the telemetry surface: every server starts with
# -log (structured JSONL) and -trace-dir, the Prometheus exposition is
# scraped and schema-validated mid-campaign (usstat -validate-prom), the
# progress endpoint is read while shards are in flight, and at the end
# the log must show exactly one trace ID across all of the job's shard
# spans plus an exported Chrome trace file. Artifacts (log, exposition,
# trace) are copied to $SMOKE_OUT when set, so CI can upload them.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=127.0.0.1:8469
BASE="http://$ADDR"
WORK="$(mktemp -d)"
SRV_PID=""
SMOKE_OUT="${SMOKE_OUT:-}"
LOG="$WORK/smoke.jsonl"
TRACES="$WORK/traces"

cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
    if [ -n "$SMOKE_OUT" ]; then
        mkdir -p "$SMOKE_OUT"
        cp -f "$LOG" "$SMOKE_OUT/" 2>/dev/null || true
        cp -f "$WORK/prom.txt" "$SMOKE_OUT/" 2>/dev/null || true
        cp -rf "$TRACES" "$SMOKE_OUT/" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "serve_smoke: FAIL: $*" >&2
    exit 1
}

echo "serve_smoke: building usserve + usstat"
go build -o "$WORK/usserve" ./cmd/usserve
go build -o "$WORK/usstat" ./cmd/usstat

JOB_REQ='{"kind":"campaign","window":256,"trials":512,"seed":7,"timeout_ms":300000}'
JOB_ID=job-000001 # deterministic: the manager numbers jobs from 1

start_server() { # $1 = state dir
    "$WORK/usserve" -addr "$ADDR" -dir "$1" -timeout 5m -drain-timeout 60s \
        -log "$LOG" -log-level debug -trace-dir "$TRACES" \
        2>>"$WORK/server.log" &
    SRV_PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    fail "server did not come up on $ADDR (log: $(cat "$WORK/server.log"))"
}

stop_server() { # graceful: SIGTERM + wait for drain to finish
    kill -TERM "$SRV_PID"
    wait "$SRV_PID" || true
    SRV_PID=""
}

job_state() {
    curl -fsS "$BASE/jobs/$JOB_ID" | grep -o '"state": "[^"]*"' | head -1 | cut -d'"' -f4
}

# job_record DIR: copies the job's last record in DIR's job journal —
# the record a restart recovers — to $WORK/record.json.
job_record() {
    grep -F "{\"id\":\"$JOB_ID\"," "$1/jobs/journal.jsonl" >"$WORK/records.json" || true
    tail -n 1 "$WORK/records.json" >"$WORK/record.json"
}

wait_done() { # $1 = max seconds
    for _ in $(seq 1 $(($1 * 5))); do
        state="$(job_state)"
        case "$state" in
        done) return 0 ;;
        failed | canceled) fail "job entered state $state: $(curl -fsS "$BASE/jobs/$JOB_ID")" ;;
        esac
        sleep 0.2
    done
    fail "job did not finish within $1s (last state: $(job_state))"
}

# --- Reference run: same job, never interrupted. -----------------------
echo "serve_smoke: reference run"
start_server "$WORK/state-ref"

curl -fsS "$BASE/readyz" | grep -q ready || fail "/readyz not ready"
curl -fsS -X POST "$BASE/jobs" -d "$JOB_REQ" >/dev/null
wait_done 120
curl -fsS "$BASE/jobs/$JOB_ID/report" >"$WORK/report-ref.txt"
[ -s "$WORK/report-ref.txt" ] || fail "empty reference report"
stop_server

# --- Interrupted run: SIGTERM mid-campaign, restart, resume. -----------
echo "serve_smoke: interrupted run"
start_server "$WORK/state-int"
curl -fsS -X POST "$BASE/jobs" -d "$JOB_REQ" >/dev/null

# Wait until the campaign has checkpointed a few shards (header + >=3
# shard lines) so the kill lands mid-job, with work both behind and
# ahead of it.
CKPT="$WORK/state-int/checkpoints/$JOB_ID.ckpt"
for _ in $(seq 1 300); do
    if [ -f "$CKPT" ] && [ "$(wc -l <"$CKPT")" -ge 4 ]; then
        break
    fi
    sleep 0.1
done
[ -f "$CKPT" ] || fail "checkpoint never appeared; job too fast or not running"
[ "$(job_state)" = running ] || fail "expected job running mid-campaign, got $(job_state)"

# --- Telemetry scrape mid-campaign: exposition + progress. -------------
echo "serve_smoke: scraping telemetry mid-campaign"
"$WORK/usstat" -addr "$BASE" -validate-prom >"$WORK/prom.txt" ||
    fail "Prometheus exposition failed schema validation"
grep -q '# TYPE serve_http_requests counter' "$WORK/prom.txt" ||
    fail "exposition missing serve_http_requests family: $(head -20 "$WORK/prom.txt")"
grep -q '# TYPE serve_queue_depth gauge' "$WORK/prom.txt" ||
    fail "exposition missing serve_queue_depth gauge"

PROGRESS="$(curl -fsS "$BASE/jobs/$JOB_ID/progress")"
echo "$PROGRESS" | grep -q '"shards_total": [1-9]' ||
    fail "mid-campaign progress has no shard total: $PROGRESS"
"$WORK/usstat" -addr "$BASE" >/dev/null || fail "usstat dashboard errored mid-campaign"

echo "serve_smoke: SIGTERM mid-job after $(wc -l <"$CKPT") checkpoint lines"
stop_server

job_record "$WORK/state-int"
grep -q '"state":"interrupted"' "$WORK/record.json" ||
    fail "drained job not persisted as interrupted: $(cat "$WORK/record.json")"

echo "serve_smoke: restarting on the same state directory"
start_server "$WORK/state-int"
wait_done 120

RESUMED="$(curl -fsS "$BASE/jobs/$JOB_ID" | grep -o '"resumed_shards": [0-9]*' | grep -o '[0-9]*' || true)"
[ -n "$RESUMED" ] && [ "$RESUMED" -gt 0 ] ||
    fail "job did not resume from checkpoint (resumed_shards=$RESUMED)"

curl -fsS "$BASE/jobs/$JOB_ID/report" >"$WORK/report-resumed.txt"
cmp "$WORK/report-ref.txt" "$WORK/report-resumed.txt" ||
    fail "resumed report differs from uninterrupted reference"
stop_server

# --- Telemetry postconditions: one trace ID, loadable trace file. ------
echo "serve_smoke: checking the job trace"
job_record "$WORK/state-int"
TRACE="$(grep -o '"trace":"[a-f0-9]*"' "$WORK/record.json" | head -1 | cut -d'"' -f4)"
[ -n "$TRACE" ] || fail "job record carries no trace ID"

# Every shard span in the log must carry the job's trace ID — exactly
# one distinct trace across all shard spans.
SHARD_TRACES="$(grep '"msg":"span"' "$LOG" | grep '"span":"shard"' |
    grep -o '"trace":"[a-f0-9]*"' | sort -u)"
[ "$(echo "$SHARD_TRACES" | wc -l)" = 1 ] ||
    fail "shard spans carry more than one trace ID: $SHARD_TRACES"
echo "$SHARD_TRACES" | grep -q "$TRACE" ||
    fail "shard spans traced as $SHARD_TRACES, job record says $TRACE"
SHARD_SPANS="$(grep -c '"span":"shard"' "$LOG")"
[ "$SHARD_SPANS" -gt 0 ] || fail "no shard spans in the log"
grep -q '"msg":"job submitted"' "$LOG" || fail "no job-submitted event in the log"
grep -q '"msg":"job done"' "$LOG" || fail "no job-done event in the log"

TRACE_FILE="$TRACES/$JOB_ID.trace.json"
[ -s "$TRACE_FILE" ] || fail "no exported Chrome trace at $TRACE_FILE"
grep -q '"traceEvents"' "$TRACE_FILE" || fail "trace file is not Chrome trace-event JSON"
grep -q "$TRACE" "$TRACE_FILE" || fail "trace file does not mention the job's trace ID"

echo "serve_smoke: PASS (resumed $RESUMED shards; reports byte-identical; $SHARD_SPANS shard spans on trace $TRACE)"
