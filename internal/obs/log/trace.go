// Trace identity and job-lifecycle spans. A serve job's trace ID is a
// pure function of its job ID, so the same job always carries the same
// identity — across restarts, across resumed campaigns, across the log,
// the metrics and the exported trace. Spans mark the phases of a job's
// life (queue wait, admission, run, per-shard work, checkpoints, drain)
// and export as Chrome trace-event JSON, so a whole job opens in
// Perfetto next to the per-cycle simulation traces internal/obs emits.
//
// Determinism rules (see DESIGN.md "Span model"): span *identity*
// (trace ID, names, order of Start calls under a serial run) is
// deterministic; span *timing* is wall-clock by nature and therefore
// lives only in telemetry artifacts, never in reports. Tests inject a
// fake clock and pin exact bytes; production uses time.Now.

package obslog

import (
	"context"
	"io"
	"sort"
	"sync"
	"time"

	"ultrascalar/internal/obs"
)

// TraceID identifies one job's telemetry across logs, spans and
// metrics: 16 lowercase hex characters.
type TraceID string

// DeriveTraceID maps a job ID to its trace ID — a pure function
// (FNV-1a over the ID, finalized splitmix64-style), so every process
// that ever touches the job derives the same identity without
// coordination.
func DeriveTraceID(jobID string) TraceID {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(jobID); i++ {
		h ^= uint64(jobID[i])
		h *= prime64
	}
	// splitmix64 finalizer: avalanche the short-string FNV state.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[h&0xf]
		h >>= 4
	}
	return TraceID(b[:])
}

// Context propagation: the serving layer roots a job's trace ID, span
// recorder and logger in the job context; the campaign runner and any
// other layer below pull them out with the From functions, all of which
// are nil-safe (absent values read back as zero).

type ctxKey int

const (
	traceIDKey ctxKey = iota
	recorderKey
	loggerKey
)

// WithTraceID returns ctx carrying the trace ID.
func WithTraceID(ctx context.Context, id TraceID) context.Context {
	return context.WithValue(ctx, traceIDKey, id)
}

// TraceIDFrom returns the context's trace ID, or "".
func TraceIDFrom(ctx context.Context) TraceID {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceIDKey).(TraceID)
	return id
}

// WithRecorder returns ctx carrying the span recorder.
func WithRecorder(ctx context.Context, r *SpanRecorder) context.Context {
	return context.WithValue(ctx, recorderKey, r)
}

// RecorderFrom returns the context's span recorder, or nil.
func RecorderFrom(ctx context.Context) *SpanRecorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(recorderKey).(*SpanRecorder)
	return r
}

// WithLogger returns ctx carrying the logger.
func WithLogger(ctx context.Context, l *Logger) context.Context {
	return context.WithValue(ctx, loggerKey, l)
}

// LoggerFrom returns the context's logger, or nil (a valid no-op).
func LoggerFrom(ctx context.Context) *Logger {
	if ctx == nil {
		return nil
	}
	l, _ := ctx.Value(loggerKey).(*Logger)
	return l
}

// SpanEvent is one completed span: a named phase of a trace with
// microsecond-resolution timing relative to the recorder's epoch (the
// first Start it ever saw).
type SpanEvent struct {
	Trace   TraceID `json:"trace"`
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`
	StartUS int64   `json:"start_us"`
	DurUS   int64   `json:"dur_us"`
}

// SpanOptions configures a recorder.
type SpanOptions struct {
	// Clock times spans; nil defaults to time.Now (the one legitimate
	// wall-clock in the span layer — timing is what spans are for).
	Clock Clock
	// Metrics, when set, receives a span.<name>_ms histogram
	// observation per completed span.
	Metrics *obs.Registry
	// Logger, when set, gets a debug line per completed span.
	Logger *Logger
	// Cap bounds the number of retained spans (default 65536); beyond
	// it new spans are counted but dropped, so a runaway job cannot
	// grow the recorder without bound.
	Cap int
}

// spanMsBounds are the span.<name>_ms histogram bucket bounds: spans
// range from sub-millisecond admissions to multi-minute campaign runs.
var spanMsBounds = []float64{0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000}

// SpanRecorder collects spans from every job a server runs. It is
// lock-cheap (one mutex around an index append) and bounded, so it can
// live for the whole process.
type SpanRecorder struct {
	mu       sync.Mutex
	clock    Clock
	epoch    time.Time
	epochSet bool
	spans    []SpanEvent
	capacity int
	dropped  int64
	reg      *obs.Registry
	logger   *Logger
}

// NewSpanRecorder builds a recorder.
func NewSpanRecorder(opts SpanOptions) *SpanRecorder {
	clock := opts.Clock
	if clock == nil {
		clock = time.Now //uslint:allow detorder -- spans measure wall time by definition; tests inject a fake clock
	}
	capacity := opts.Cap
	if capacity <= 0 {
		capacity = 65536
	}
	return &SpanRecorder{clock: clock, capacity: capacity, reg: opts.Metrics, logger: opts.Logger}
}

// Span is one in-flight phase; End completes it. The zero Span (from a
// nil recorder) is a valid no-op.
type Span struct {
	rec    *SpanRecorder
	trace  TraceID
	name   string
	detail string
	start  time.Time
}

// Start opens a span on the trace. Nil-safe: a nil recorder returns a
// no-op span, so call sites need no guard.
func (r *SpanRecorder) Start(trace TraceID, name, detail string) Span {
	if r == nil {
		return Span{}
	}
	r.mu.Lock()
	now := r.clock()
	if !r.epochSet {
		r.epoch, r.epochSet = now, true
	}
	r.mu.Unlock()
	return Span{rec: r, trace: trace, name: name, detail: detail, start: now}
}

// End completes the span, recording it (and its histogram observation
// and log line, when configured).
func (s Span) End() {
	r := s.rec
	if r == nil {
		return
	}
	end := r.clock()
	dur := end.Sub(s.start)
	if dur < 0 {
		dur = 0
	}
	r.mu.Lock()
	startUS := s.start.Sub(r.epoch).Microseconds()
	if startUS < 0 {
		startUS = 0
	}
	if len(r.spans) < r.capacity {
		r.spans = append(r.spans, SpanEvent{
			Trace: s.trace, Name: s.name, Detail: s.detail,
			StartUS: startUS, DurUS: dur.Microseconds(),
		})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	if r.reg != nil {
		r.reg.Histogram("span."+s.name+"_ms", spanMsBounds).
			Observe(float64(dur.Nanoseconds()) / 1e6)
	}
	if r.logger.Enabled(LevelDebug) {
		r.logger.WithTrace(s.trace).Debug("span",
			String("span", s.name), String("detail", s.detail), Duration("ms", dur))
	}
}

// Events returns a copy of the spans recorded for the trace (all traces
// when trace is ""), sorted by start time then name — a deterministic
// order for a deterministic clock.
func (r *SpanRecorder) Events(trace TraceID) []SpanEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]SpanEvent, 0, len(r.spans))
	for _, s := range r.spans {
		if trace == "" || s.Trace == trace {
			out = append(out, s)
		}
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartUS != out[j].StartUS {
			return out[i].StartUS < out[j].StartUS
		}
		if out[i].Trace != out[j].Trace {
			return out[i].Trace < out[j].Trace
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Dropped returns the number of spans discarded at the capacity bound.
func (r *SpanRecorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Chrome trace-event export: each trace renders as one thread of a
// "jobs" process (tid assigned by first appearance in the sorted event
// order), spans as complete ("X") slices. It writes the same
// obs.ChromeDoc as the pipeline exporter, so obs.ValidateChromeTrace
// accepts it and Perfetto loads it.

// WriteChromeTrace writes the spans of one trace (or all traces when
// trace is "") as Chrome trace-event JSON.
func (r *SpanRecorder) WriteChromeTrace(w io.Writer, trace TraceID) error {
	events := r.Events(trace)
	doc := obs.ChromeDoc{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"clock_note": "1 trace tick = 1 microsecond of wall time since the recorder epoch",
		},
		TraceEvents: []obs.TraceEvent{{
			Name: "process_name", Ph: "M", Pid: 0,
			Args: map[string]any{"name": "ultrascalar jobs"},
		}},
	}
	tids := map[TraceID]int32{}
	for _, ev := range events {
		if _, ok := tids[ev.Trace]; ok {
			continue
		}
		tid := int32(len(tids))
		tids[ev.Trace] = tid
		doc.TraceEvents = append(doc.TraceEvents,
			obs.TraceEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
				Args: map[string]any{"name": "trace " + string(ev.Trace)}},
			obs.TraceEvent{Name: "thread_sort_index", Ph: "M", Pid: 0, Tid: tid,
				Args: map[string]any{"sort_index": tid}})
	}
	for _, ev := range events {
		args := map[string]any{"trace": string(ev.Trace)}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		doc.TraceEvents = append(doc.TraceEvents, obs.TraceEvent{
			Name: ev.Name, Ph: "X", Ts: ev.StartUS, Dur: ev.DurUS,
			Pid: 0, Tid: tids[ev.Trace], Args: args,
		})
	}
	return obs.WriteChromeDoc(w, doc)
}
