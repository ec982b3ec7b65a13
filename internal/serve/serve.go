// Package serve turns the simulator into a long-running service: it
// accepts simulations, IPC sweeps and fault campaigns as managed jobs,
// bounds every job by a deadline, sheds load when the admission queue is
// full, trips a per-config-class circuit breaker after repeated
// livelock/timeout failures, drains gracefully on shutdown, and recovers
// crash-interrupted jobs on restart.
//
// The robustness discipline mirrors the paper's queuing treatment of
// issue-queue contention one layer up: bounded queues and measured
// rejection instead of unbounded waiting. Every job's result is a
// deterministic text report — a function of the job's request alone —
// so a job interrupted by SIGKILL and resumed on restart produces a
// report byte-identical to an uninterrupted run (campaign jobs resume
// from their shard checkpoints; sims and sweeps simply rerun, which is
// free because they are pure).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ultrascalar/internal/atomicio"
	"ultrascalar/internal/core"
	"ultrascalar/internal/exp"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
	"ultrascalar/internal/rescache"
	"ultrascalar/internal/workload"
)

// Error-taxonomy kinds: every rejected request and failed job carries
// exactly one of these, so clients and dashboards can distinguish "the
// config livelocked" from "the service is busy" without parsing
// messages.
const (
	KindTimeout       = "timeout"            // job exceeded its deadline
	KindLivelock      = "livelock"           // engine watchdog proved no forward progress
	KindInvalidConfig = "invalid-config"     // request rejected at admission
	KindShed          = "shed"               // admission queue full
	KindDraining      = "draining"           // service is shutting down
	KindBreakerOpen   = "breaker-open"       // config class tripped the circuit breaker
	KindCanceled      = "canceled"           // job canceled by the client
	KindInternal      = "internal"           // unexpected execution failure
	KindNotFound      = "not-found"          // no such job
	KindResource      = "resource-exhausted" // disk full / I/O failure persisting state; retryable
)

// Error is a structured service error: a taxonomy kind, a human
// message, the HTTP status it maps to, and an optional Retry-After
// hint for load-shedding responses.
type Error struct {
	Kind       string
	Msg        string
	Status     int
	RetryAfter time.Duration
}

// Error renders the kind and message.
func (e *Error) Error() string { return e.Kind + ": " + e.Msg }

// Job states. queued and interrupted jobs are runnable on restart;
// running jobs found on disk at startup are crash leftovers and are
// demoted to interrupted.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCanceled    = "canceled"
	StateInterrupted = "interrupted"
)

// JobRequest is the client-supplied job description.
type JobRequest struct {
	// Kind selects the job type: "sim" (one run), "sweep" (the E8 IPC
	// sweep) or "campaign" (a checkpointed fault campaign).
	Kind string `json:"kind"`
	// Arch is the architecture for sim jobs (ultra1, ultra2, hybrid).
	Arch string `json:"arch,omitempty"`
	// Window is the station count n for every kind.
	Window int `json:"window"`
	// Cluster is the hybrid cluster size C (0 = window/4).
	Cluster int `json:"cluster,omitempty"`
	// Workload names the kernel for sim jobs (default "fib").
	Workload string `json:"workload,omitempty"`
	// Seed drives campaign fault draws (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Trials is the campaign's injections per cell (default 4).
	Trials int `json:"trials,omitempty"`
	// Archs restricts a campaign to a subset of architectures (nil =
	// all). With Sites and Workloads this is how a fleet coordinator
	// scopes one job to one shard of a larger campaign; point seeds are
	// keyed by shard identity, so the sub-campaign's cells are
	// byte-identical to the same cells of a full run.
	Archs []string `json:"archs,omitempty"`
	// Sites restricts a campaign to a subset of fault sites by name
	// (nil = all).
	Sites []string `json:"sites,omitempty"`
	// Workloads restricts a campaign to a subset of the campaign
	// workload suite by name (nil = all).
	Workloads []string `json:"workloads,omitempty"`
	// Trace, when set (16 lowercase hex chars), is adopted as the job's
	// trace ID instead of deriving one from the job ID — the fleet
	// coordinator assigns each shard job a trace so coordinator and
	// worker telemetry share one identity.
	Trace string `json:"trace,omitempty"`
	// TimeoutMs bounds the job (0 = service default; capped at the
	// service maximum).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Job is one managed job: the request, its lifecycle state, and — once
// finished — either a deterministic text report or a classified error.
type Job struct {
	ID        string     `json:"id"`
	Trace     string     `json:"trace,omitempty"`
	Request   JobRequest `json:"request"`
	State     string     `json:"state"`
	ErrorKind string     `json:"error_kind,omitempty"`
	Error     string     `json:"error,omitempty"`
	Report    string     `json:"report,omitempty"`
	// Cells carries a finished campaign job's per-shard result cells in
	// structured form, so a fleet coordinator can merge shard results
	// without parsing the text report.
	Cells         []fault.Cell `json:"cells,omitempty"`
	Attempts      int          `json:"attempts"`
	ResumedShards int          `json:"resumed_shards,omitempty"`
	// Retryable marks a failed job whose failure was environmental
	// (resource exhaustion while persisting state), not a property of
	// the config: resubmitting the same request is expected to succeed.
	Retryable bool `json:"retryable,omitempty"`
	// Cached marks a done job whose report was served from the result
	// cache (byte-identical to recomputation by construction — the
	// entry is integrity-checked on read).
	Cached bool `json:"cached,omitempty"`
}

// Clock abstracts wall time so tests drive deadlines and breaker
// cooldowns deterministically.
type Clock func() time.Time

// Config tunes the service.
type Config struct {
	// Dir is the state directory. Job records are appended to the
	// journal Dir/jobs/journal.jsonl, one compact JSON record per line
	// and per state change, the last record for an ID winning; the
	// journal is created at the first submit, and compacted to one
	// record per job at start. Records older binaries wrote as
	// Dir/jobs/<id>.json are read first. Campaign checkpoints live in
	// Dir/checkpoints.
	Dir string
	// QueueCap bounds the admission queue; submissions beyond it are
	// shed with 503 + Retry-After (default 16). This is the hard memory
	// bound and applies to every job class; the delay controller below
	// usually sheds long before it is reached.
	QueueCap int
	// AdmitTarget is the CoDel-style queue-delay target: delay
	// persistently above it for AdmitInterval starts shedding the
	// lowest-priority job class (sim first, then sweep; campaigns are
	// never delay-shed). 0 = default 100ms; negative disables the
	// delay controller entirely, leaving only QueueCap.
	AdmitTarget time.Duration
	// AdmitInterval is how long delay must stay above AdmitTarget
	// before shedding starts, and how long between escalations
	// (default 1s).
	AdmitInterval time.Duration
	// CacheDir, when set, enables the content-addressed result cache:
	// a finished job's report is stored keyed by the SHA-256 of its
	// normalized request + the build's commit, and an identical later
	// request is served from the cache (integrity-checked on read)
	// instead of re-simulating.
	CacheDir string
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// DefaultTimeout bounds jobs that do not request one (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout (default 10m).
	MaxTimeout time.Duration
	// BreakerThreshold is the consecutive livelock/timeout failure count
	// that trips a config class's breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped class rejects jobs before a
	// half-open probe is allowed (default 30s).
	BreakerCooldown time.Duration
	// Metrics receives queue-depth, shed and job counters (nil = off).
	Metrics *obs.Registry
	// Clock defaults to time.Now; tests inject a fake.
	Clock Clock
	// Log receives structured JSONL service events (nil = off; a nil
	// logger is a valid no-op everywhere).
	Log *obslog.Logger
	// Spans records job-lifecycle spans — queue wait, run, per-shard
	// work, checkpoints, drain (nil = off).
	Spans *obslog.SpanRecorder
	// TraceDir, when set, receives one Chrome trace-event JSON file per
	// finished job (<id>.trace.json, written crash-atomically).
	TraceDir string
	// EnablePprof mounts net/http/pprof handlers under /debug/pprof/.
	EnablePprof bool
}

// Manager owns the job store, admission queue, worker pool, breakers
// and drain lifecycle.
type Manager struct {
	cfg      Config
	breakers *breakerSet
	log      *obslog.Logger // component "serve"; nil when logging is off
	trace    obslog.TraceID // the service's own lifecycle trace (drain etc.)

	mu         sync.Mutex
	jobs       map[string]*Job
	order      []string // job IDs, ascending; listings and recovery iterate this
	cancels    map[string]context.CancelFunc
	nextSeq    int
	depth      int // queued-but-not-yet-claimed entries across all classes, vs cfg.QueueCap
	draining   bool
	progress   map[string]shardProgress // campaign shard completion, by job ID
	queueSpans map[string]obslog.Span   // open queue-wait spans, by job ID
	progCond   *sync.Cond               // broadcast on progress / job-state change
	journal    *atomicio.Journal        // job records, appended by persistLocked

	// queues holds the admission queue as one FIFO per job class;
	// workers claim from the highest class first, so under pressure
	// campaigns run ahead of sweeps ahead of sims. workCond (on m.mu)
	// wakes waiting workers on enqueue and on drain.
	queues   [numClasses][]queueEntry
	workCond *sync.Cond
	admit    admitState
	wg       sync.WaitGroup

	// cache is the content-addressed result cache (nil = off) and
	// cacheCommit the build-identity component of its keys.
	cache       *rescache.Cache
	cacheCommit string

	mDepth           *obs.Gauge
	mShed, mDone     *obs.Counter
	mFailed, mSubmit *obs.Counter
	mBreaker         *obs.Counter
	mQueueDelay      *obs.Histogram
	mAdmitLevel      *obs.Gauge
	mPersistErr      *obs.Counter
	mPersist         *obs.Histogram
	mShedClass       [numClasses]*obs.Counter
	inflight         atomic.Int64 // in-flight HTTP requests, mirrored to a gauge

	// testExec, when set, replaces real job execution; tests use it to
	// block, fail or classify jobs on cue.
	testExec func(ctx context.Context, job *Job) (string, error)
}

// shardProgress is one campaign job's shard-completion count.
type shardProgress struct {
	Done  int
	Total int
}

// queueEntry is one admission-queue slot: the job and when it was
// enqueued, so the claim measures the true sojourn time.
type queueEntry struct {
	id       string
	enqueued time.Time
}

// New builds a Manager rooted at cfg.Dir, recovers any jobs a previous
// process left queued, running or interrupted (re-enqueued in ID
// order), and starts the worker pool.
func New(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("serve: Config.Dir is required")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	if cfg.AdmitTarget == 0 {
		cfg.AdmitTarget = 100 * time.Millisecond
	}
	if cfg.AdmitInterval <= 0 {
		cfg.AdmitInterval = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now //uslint:allow detorder -- wall clock is serving policy (deadlines, cooldowns, Retry-After), never experiment data
	}
	for _, sub := range []string{"jobs", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(cfg.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: creating state dir: %w", err)
		}
	}
	if cfg.TraceDir != "" {
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: creating trace dir: %w", err)
		}
	}

	m := &Manager{
		cfg:        cfg,
		breakers:   newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock),
		log:        cfg.Log.With("serve"),
		trace:      obslog.DeriveTraceID("usserve"),
		jobs:       map[string]*Job{},
		cancels:    map[string]context.CancelFunc{},
		progress:   map[string]shardProgress{},
		queueSpans: map[string]obslog.Span{},
		nextSeq:    1,
		admit: admitState{
			target:   cfg.AdmitTarget,
			interval: cfg.AdmitInterval,
			disabled: cfg.AdmitTarget < 0,
		},
	}
	m.progCond = sync.NewCond(&m.mu)
	m.workCond = sync.NewCond(&m.mu)
	if r := cfg.Metrics; r != nil {
		m.mDepth = r.Gauge("serve.queue_depth")
		m.mShed = r.Counter("serve.shed")
		m.mDone = r.Counter("serve.jobs_done")
		m.mFailed = r.Counter("serve.jobs_failed")
		m.mSubmit = r.Counter("serve.jobs_submitted")
		m.mBreaker = r.Counter("serve.breaker_trips")
		m.mQueueDelay = r.Histogram("serve.queue_delay_ms", queueDelayMsBounds)
		m.mAdmitLevel = r.Gauge("serve.admit_level")
		m.mPersistErr = r.Counter("serve.persist_errors")
		m.mPersist = r.Histogram("serve.persist_ms", persistMsBounds)
		for cls := 0; cls < numClasses; cls++ {
			m.mShedClass[cls] = r.Counter(obs.LabeledName("serve.shed_class",
				obs.Label{Key: "class", Value: className(cls)}))
		}
	}
	if cfg.CacheDir != "" {
		cache, err := rescache.Open(cfg.CacheDir, rescache.Options{
			Metrics: cfg.Metrics, Prefix: "serve.cache", Log: cfg.Log,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: opening result cache: %w", err)
		}
		m.cache = cache
		m.cacheCommit = obs.NewManifest("usserve").GitCommit
	}
	// The transition hook runs under the breaker mutex: it may only
	// touch atomics and the logger, never the manager lock or the
	// breaker itself.
	m.breakers.onTransition = func(class, from, to string) {
		if r := cfg.Metrics; r != nil {
			r.Counter(obs.LabeledName("serve.breaker_transitions",
				obs.Label{Key: "class", Value: class}, obs.Label{Key: "to", Value: to})).Inc()
			r.Gauge(obs.LabeledName("serve.breaker_state",
				obs.Label{Key: "class", Value: class})).Set(breakerStateValue(to))
		}
		m.log.With("breaker").Info("breaker transition",
			obslog.String("class", class), obslog.String("from", from), obslog.String("to", to))
	}

	runnable, err := m.recover()
	if err != nil {
		return nil, err
	}
	if len(m.order) > 0 {
		m.log.Info("recovered jobs",
			obslog.Int("jobs", len(m.order)), obslog.Int("runnable", len(runnable)))
	}
	// Recovered jobs may exceed QueueCap (the queues are slices, not a
	// bounded channel); Submit keeps shedding new work until the
	// backlog drains below the cap.
	m.mu.Lock()
	now := cfg.Clock()
	for _, id := range runnable {
		m.enqueueLocked(m.jobs[id], now)
	}
	m.mu.Unlock()

	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// journalName is the job-record journal's file name in Dir/jobs.
const journalName = "journal.jsonl"

// recover loads persisted jobs: first the one-file-per-job records
// (Dir/jobs/<id>.json) older binaries wrote, then the journal, whose
// last record for an ID wins. Jobs found running were interrupted by a
// crash: they are demoted to interrupted and, like queued and
// previously-interrupted jobs, re-enqueued in ID order; the demotion
// need not be appended, since a replay demotes the record again. The
// checkpoints of finished campaign jobs are removed. When
// the journal holds more records than there are jobs, it is rewritten
// once with one record per job in ID order.
func (m *Manager) recover() ([]string, error) {
	dir := filepath.Join(m.cfg.Dir, "jobs")
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: reading job dir: %w", err)
	}
	for _, e := range ents { // ReadDir sorts by name == ID order
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("serve: reading job record: %w", err)
		}
		if err := m.loadRecord(data); err != nil {
			return nil, fmt.Errorf("serve: corrupt job record %s: %w", e.Name(), err)
		}
	}
	records := 0
	m.journal, err = atomicio.OpenJournal(filepath.Join(dir, journalName), 0o644, func(rec []byte) error {
		records++
		return m.loadRecord(rec)
	})
	if err != nil {
		return nil, fmt.Errorf("serve: corrupt job journal: %w", err)
	}
	sort.Strings(m.order)
	var runnable []string
	for _, id := range m.order {
		job := m.jobs[id]
		if job.State == StateRunning {
			job.State = StateInterrupted
		}
		if job.Trace == "" {
			// Records from before trace identity existed: derive it now —
			// the ID→trace mapping is pure, so this is the same trace any
			// other process would assign.
			job.Trace = string(obslog.DeriveTraceID(job.ID))
		}
		var seq int
		if _, err := fmt.Sscanf(job.ID, "job-%06d", &seq); err == nil && seq >= m.nextSeq {
			m.nextSeq = seq + 1
		}
		if job.State == StateQueued || job.State == StateInterrupted {
			runnable = append(runnable, job.ID)
		}
		m.reapCheckpoint(job)
	}
	if records > len(m.order) {
		m.compact()
	}
	return runnable, nil
}

// loadRecord decodes one job record and makes it the job's current
// state, replacing any earlier record for the same ID.
func (m *Manager) loadRecord(data []byte) error {
	var job Job
	if err := json.Unmarshal(data, &job); err != nil {
		return err
	}
	if job.ID == "" {
		return errors.New("job record has no id")
	}
	if _, seen := m.jobs[job.ID]; !seen {
		m.order = append(m.order, job.ID)
	}
	m.jobs[job.ID] = &job
	return nil
}

// compact rewrites the journal with one record per job, in ID order.
// It runs only at start: a drain must not spend its exit budget
// rewriting every job. A failure leaves the old journal, which still
// replays to the same jobs, so it is counted and logged like a failed
// append.
func (m *Manager) compact() {
	recs := make([][]byte, 0, len(m.order))
	for _, id := range m.order {
		data, err := json.Marshal(m.jobs[id])
		if err != nil {
			return
		}
		recs = append(recs, data)
	}
	if err := m.journal.Rewrite(recs); err != nil {
		m.persistFailed("", err)
	}
}

// configClass is the circuit breaker's grouping key: jobs that share a
// kind, architecture and window fail alike (a livelocking config shape
// livelocks again), so the breaker trips per class, not globally.
func configClass(req JobRequest) string {
	arch := req.Arch
	if arch == "" {
		arch = "all"
	}
	return fmt.Sprintf("%s/%s/n=%d", req.Kind, arch, req.Window)
}

// validate admission-checks a request, normalizing defaults in place.
func (m *Manager) validate(req *JobRequest) *Error {
	bad := func(format string, args ...any) *Error {
		return &Error{Kind: KindInvalidConfig, Msg: fmt.Sprintf(format, args...), Status: 400}
	}
	if req.Window < 1 || req.Window > 4096 {
		return bad("window must be in [1, 4096], got %d", req.Window)
	}
	if req.Cluster == 0 {
		req.Cluster = req.Window / 4
		if req.Cluster < 1 {
			req.Cluster = 1
		}
	}
	if req.TimeoutMs < 0 {
		return bad("timeout_ms must be >= 0, got %d", req.TimeoutMs)
	}
	switch req.Kind {
	case "sim":
		if _, err := exp.ArchConfig(req.Arch, req.Window, req.Cluster); err != nil {
			return bad("%v", err)
		}
		if req.Workload == "" {
			req.Workload = "fib"
		}
		if _, ok := kernelByName(req.Workload); !ok {
			return bad("unknown workload %q", req.Workload)
		}
	case "sweep":
		// The IPC sweep runs all three architectures; arch is not used.
	case "campaign":
		if req.Seed == 0 {
			req.Seed = 1
		}
		if req.Trials == 0 {
			req.Trials = 4
		}
		if req.Trials < 1 || req.Trials > 1024 {
			return bad("trials must be in [1, 1024], got %d", req.Trials)
		}
		for _, a := range req.Archs {
			if _, err := exp.ArchConfig(a, req.Window, req.Cluster); err != nil {
				return bad("%v", err)
			}
		}
		for _, s := range req.Sites {
			if _, ok := fault.SiteFromString(s); !ok {
				return bad("unknown fault site %q", s)
			}
		}
		for _, w := range req.Workloads {
			if _, ok := campaignWorkloadByName(w); !ok {
				return bad("unknown campaign workload %q", w)
			}
		}
	default:
		return bad("unknown job kind %q (want sim, sweep or campaign)", req.Kind)
	}
	if req.Trace != "" && !validTraceID(req.Trace) {
		return bad("trace must be 16 lowercase hex characters, got %q", req.Trace)
	}
	return nil
}

// validTraceID checks the 16-lowercase-hex trace shape obslog emits.
func validTraceID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// campaignWorkloadByName resolves a campaign-suite workload by name.
func campaignWorkloadByName(name string) (workload.Workload, bool) {
	for _, w := range exp.FaultWorkloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload.Workload{}, false
}

// kernelSuite is the kernel suite, assembled once per process. Sim jobs
// only read it: the programs are shared by every job and worker.
var kernelSuite = sync.OnceValue(workload.Kernels)

// kernelByName resolves a kernel-suite workload by name.
func kernelByName(name string) (workload.Workload, bool) {
	for _, w := range kernelSuite() {
		if w.Name == name {
			return w, true
		}
	}
	return workload.Workload{}, false
}

// Submit admission-checks a request and enqueues it as a new job. The
// rejection order is deliberate: drain first (the service is going
// away), then validation (bad requests never consume queue space), then
// the breaker (known-bad classes are refused while capacity remains for
// healthy ones), then admission (hard queue capacity for every class,
// or the delay controller shedding this request's class — both answer
// 503 + Retry-After).
func (m *Manager) Submit(req JobRequest) (*Job, *Error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, &Error{Kind: KindDraining, Msg: "service is draining", Status: 503, RetryAfter: time.Second}
	}
	if serr := m.validate(&req); serr != nil {
		return nil, serr
	}
	if serr := m.breakers.allow(configClass(req)); serr != nil {
		return nil, serr
	}
	now := m.cfg.Clock()
	cls := classPriority(req.Kind)
	// Feed the controller the head-of-line age too: when the worker
	// pool is stalled nothing is being dequeued, and the submit path is
	// the only place left to notice the standing queue growing old. An
	// empty queue is an explicit zero-delay observation — the standing
	// queue is gone, so any overload episode ends here even if the last
	// dequeue measured a long sojourn.
	age, _ := m.oldestQueuedAgeLocked(now)
	m.admit.observe(age, now)
	m.gaugeAdmitLevel()
	if serr := m.shedCheckLocked(cls, req.Kind); serr != nil {
		return nil, serr
	}

	job := &Job{
		ID:      fmt.Sprintf("job-%06d", m.nextSeq),
		Request: req,
		State:   StateQueued,
	}
	if req.Trace != "" {
		// Caller-assigned identity (fleet shard jobs): coordinator and
		// worker telemetry share one trace.
		job.Trace = req.Trace
	} else {
		job.Trace = string(obslog.DeriveTraceID(job.ID))
	}
	m.nextSeq++
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.persistLocked(job)
	m.enqueueLocked(job, now)
	if m.mSubmit != nil {
		m.mSubmit.Inc()
	}
	// The queue-wait span stays open until a worker claims the job (or
	// skims its cancellation tombstone off the channel).
	m.queueSpans[job.ID] = m.cfg.Spans.Start(obslog.TraceID(job.Trace), "queue", req.Kind)
	m.log.WithTrace(obslog.TraceID(job.Trace)).Info("job submitted",
		obslog.String("id", job.ID), obslog.String("kind", req.Kind),
		obslog.Int("window", req.Window), obslog.Int("depth", m.depth))
	return snapshot(job), nil
}

// shedCheckLocked is the admission decision for one request class:
// the hard QueueCap bound first (memory backstop, every class), then
// the delay controller's class-ordered shedding. m.mu must be held.
func (m *Manager) shedCheckLocked(cls int, kind string) *Error {
	var msg string
	retryAfter := time.Second
	switch {
	case m.depth >= m.cfg.QueueCap:
		msg = fmt.Sprintf("admission queue full (%d queued)", m.depth)
	case m.admit.sheds(cls):
		msg = fmt.Sprintf("queue delay %s over %s target (shedding %s and below, level %d)",
			m.admit.lastDelay.Round(time.Millisecond), m.admit.target, className(m.admit.level-1), m.admit.level)
		// Under sustained overload, asking clients back sooner than one
		// controller interval just re-sheds them.
		if m.admit.interval > retryAfter {
			retryAfter = m.admit.interval
		}
	default:
		return nil
	}
	if m.mShed != nil {
		m.mShed.Inc()
	}
	if m.mShedClass[cls] != nil {
		m.mShedClass[cls].Inc()
	}
	m.log.Warn("job shed", obslog.String("kind", kind), obslog.Int("depth", m.depth),
		obslog.Int("admit_level", m.admit.level),
		obslog.Duration("queue_delay", m.admit.lastDelay))
	return &Error{Kind: KindShed, Status: 503, RetryAfter: retryAfter, Msg: msg}
}

// enqueueLocked appends a job to its class queue and wakes one worker;
// m.mu must be held.
func (m *Manager) enqueueLocked(job *Job, now time.Time) {
	cls := classPriority(job.Request.Kind)
	m.queues[cls] = append(m.queues[cls], queueEntry{id: job.ID, enqueued: now})
	m.depth++
	m.gaugeDepth()
	m.workCond.Signal()
}

// oldestQueuedAgeLocked returns the age of the oldest queued entry
// across all classes; m.mu must be held.
func (m *Manager) oldestQueuedAgeLocked(now time.Time) (time.Duration, bool) {
	var oldest time.Time
	for cls := 0; cls < numClasses; cls++ {
		if len(m.queues[cls]) > 0 {
			if e := m.queues[cls][0]; oldest.IsZero() || e.enqueued.Before(oldest) {
				oldest = e.enqueued
			}
		}
	}
	if oldest.IsZero() {
		return 0, false
	}
	return now.Sub(oldest), true
}

// gaugeAdmitLevel publishes the controller's shed level; m.mu held.
func (m *Manager) gaugeAdmitLevel() {
	if m.mAdmitLevel != nil {
		m.mAdmitLevel.Set(float64(m.admit.level))
	}
}

// Get returns a copy of one job.
func (m *Manager) Get(id string) (*Job, *Error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, &Error{Kind: KindNotFound, Msg: "no job " + id, Status: 404}
	}
	return snapshot(job), nil
}

// List returns copies of all jobs in ID order — deterministic output
// regardless of map iteration.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, snapshot(m.jobs[id]))
	}
	return out
}

// Cancel cancels a queued or running job. Queued jobs flip to canceled
// immediately (the worker skips them on dequeue); running jobs have
// their context canceled and classify as canceled when they unwind.
func (m *Manager) Cancel(id string) (*Job, *Error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, &Error{Kind: KindNotFound, Msg: "no job " + id, Status: 404}
	}
	switch job.State {
	case StateQueued:
		// The job's queue slot stays counted in depth until a worker
		// skims its tombstone off the class queue — depth must equal
		// queue occupancy exactly, so the conservation bookkeeping the
		// overload tests pin (admitted = departures + still-queued)
		// holds through cancellations too.
		job.State = StateCanceled
		job.ErrorKind = KindCanceled
		job.Error = "canceled before start"
		m.persistLocked(job)
		m.progCond.Broadcast()
		m.log.WithTrace(obslog.TraceID(job.Trace)).Info("job canceled while queued",
			obslog.String("id", id))
	case StateRunning:
		if cancel := m.cancels[id]; cancel != nil {
			cancel()
		}
	}
	return snapshot(job), nil
}

// Draining reports whether the service has begun shutting down.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain gracefully shuts the service down: stop admitting, cancel
// running campaign jobs (they checkpoint at shard granularity and
// resume on restart), let sims and sweeps finish under their own
// deadlines, and wait for the workers. If ctx expires first, every
// remaining job is canceled outright — campaigns and interrupted sims
// alike are runnable again on restart.
func (m *Manager) Drain(ctx context.Context) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return
	}
	m.draining = true
	m.workCond.Broadcast() // wake idle workers so they observe the drain and exit
	sp := m.cfg.Spans.Start(m.trace, "drain", "")
	defer sp.End()
	m.log.Info("drain start", obslog.Int("depth", m.depth))
	defer m.log.Info("drain done")
	for _, id := range m.order {
		job := m.jobs[id]
		if job.State == StateRunning && job.Request.Kind == "campaign" {
			if cancel := m.cancels[id]; cancel != nil {
				cancel()
			}
		}
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.mu.Lock()
		for _, id := range m.order {
			if cancel := m.cancels[id]; cancel != nil {
				cancel()
			}
		}
		m.mu.Unlock()
		<-done
	}
	// Every record is already fsynced, so a close error loses nothing;
	// a later Cancel still persists, since the journal reopens on demand.
	m.mu.Lock()
	m.journal.Close()
	m.mu.Unlock()
}

// worker claims and runs jobs until drain. The drain check inside
// claimNext comes before any claim, so a drain never starts new work
// that is already queued — queued jobs stay persisted and run after
// restart.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		id, ok := m.claimNext()
		if !ok {
			return
		}
		m.runJob(id)
	}
}

// claimNext blocks until a runnable job is available (highest class
// first, FIFO within a class) or the service drains. Each popped entry
// — tombstones included — closes its queue span, updates depth, and
// feeds its sojourn time to the delay controller and histogram: a
// canceled job still occupied the queue for exactly that long.
func (m *Manager) claimNext() (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.draining {
			return "", false
		}
		for cls := numClasses - 1; cls >= 0; cls-- {
			for len(m.queues[cls]) > 0 {
				e := m.queues[cls][0]
				m.queues[cls] = m.queues[cls][1:]
				m.depth--
				m.gaugeDepth()
				if sp, ok := m.queueSpans[e.id]; ok {
					delete(m.queueSpans, e.id)
					sp.End()
				}
				now := m.cfg.Clock()
				delay := now.Sub(e.enqueued)
				m.admit.observe(delay, now)
				m.gaugeAdmitLevel()
				if m.mQueueDelay != nil {
					m.mQueueDelay.Observe(float64(delay) / float64(time.Millisecond))
				}
				job, ok := m.jobs[e.id]
				if !ok || (job.State != StateQueued && job.State != StateInterrupted) {
					continue // canceled while queued: skim the tombstone
				}
				return e.id, true
			}
		}
		m.workCond.Wait()
	}
}

// runJob executes one job end to end: claim, execute under a deadline,
// classify, persist, inform the breaker, export the lifecycle trace.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok || (job.State != StateQueued && job.State != StateInterrupted) {
		m.mu.Unlock()
		return // canceled between claim and start
	}
	job.State = StateRunning
	job.Attempts++
	job.ErrorKind, job.Error = "", ""
	job.Retryable, job.Cached = false, false
	m.persistLocked(job)
	m.progCond.Broadcast()
	timeout := m.cfg.DefaultTimeout
	if job.Request.TimeoutMs > 0 {
		timeout = time.Duration(job.Request.TimeoutMs) * time.Millisecond
	}
	if timeout > m.cfg.MaxTimeout {
		timeout = m.cfg.MaxTimeout
	}
	// Jobs outlive the HTTP request that submitted them, so the manager —
	// not the handler — is each job's context root; Stop/drain cancels
	// through m.cancels.
	ctx, cancel := context.WithTimeout(context.Background(), timeout) //uslint:allow ctxflow -- the manager is the job's context root; jobs outlive their submitting request
	m.cancels[id] = cancel
	req := job.Request
	tid := obslog.TraceID(job.Trace)
	attempt := job.Attempts
	m.mu.Unlock()
	defer cancel()

	// Thread the job's telemetry identity through the context: the
	// campaign runner (and anything below it) picks the trace ID, span
	// recorder and logger back up with the obslog From functions.
	ctx = obslog.WithTraceID(ctx, tid)
	if m.cfg.Spans != nil {
		ctx = obslog.WithRecorder(ctx, m.cfg.Spans)
	}
	if m.cfg.Log != nil {
		ctx = obslog.WithLogger(ctx, m.cfg.Log)
	}
	jlog := m.log.With("job").WithTrace(tid)
	jlog.Info("job start",
		obslog.String("id", id), obslog.String("kind", req.Kind), obslog.Int("attempt", attempt))

	runSpan := m.cfg.Spans.Start(tid, "run", req.Kind)
	res, err := m.execute(ctx, job, req)
	runSpan.End()

	state, errKind := m.finishJob(id, req, res, err)
	resumed := res.resumed
	switch state {
	case StateDone:
		jlog.Info("job done", obslog.String("id", id), obslog.Int("resumed_shards", resumed))
	case StateInterrupted:
		jlog.Info("job interrupted for drain", obslog.String("id", id))
	case StateCanceled:
		jlog.Info("job canceled", obslog.String("id", id))
	default:
		jlog.Warn("job failed", obslog.String("id", id), obslog.String("kind", errKind))
	}
	m.exportTrace(tid, id)
}

// finishJob classifies one executed job's outcome, persists it and
// informs the breaker; it returns the final state and error kind.
func (m *Manager) finishJob(id string, req JobRequest, res execResult, err error) (string, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job := m.jobs[id]
	delete(m.cancels, id)
	defer m.progCond.Broadcast()
	class := configClass(req)
	switch kind := classifyRunError(err); {
	case err == nil:
		job.State = StateDone
		job.Report = res.report
		job.Cells = res.cells
		job.ResumedShards = res.resumed
		job.Cached = res.cached
		m.breakers.report(class, true)
		if m.mDone != nil {
			m.mDone.Inc()
		}
	case kind == KindCanceled && m.draining:
		// Drain checkpoint: runnable again on restart.
		job.State = StateInterrupted
		job.ErrorKind, job.Error = "", ""
	case kind == KindCanceled:
		job.State = StateCanceled
		job.ErrorKind = KindCanceled
		job.Error = err.Error()
	default:
		job.State = StateFailed
		job.ErrorKind = kind
		job.Error = err.Error()
		// Resource exhaustion (disk full during a checkpoint or record
		// write) is environmental, not a property of the config: the
		// job is marked retryable and the class breaker is NOT informed
		// — a full disk must not brown-out healthy config classes.
		if kind == KindResource {
			job.Retryable = true
		}
		if kind == KindLivelock || kind == KindTimeout {
			if m.breakers.report(class, false) && m.mBreaker != nil {
				m.mBreaker.Inc()
			}
		}
		if m.mFailed != nil {
			m.mFailed.Inc()
		}
	}
	m.persistLocked(job)
	return job.State, job.ErrorKind
}

// exportTrace writes the job's lifecycle spans as a Chrome trace-event
// file — crash-atomically, outside the manager lock.
func (m *Manager) exportTrace(tid obslog.TraceID, id string) {
	if m.cfg.TraceDir == "" || m.cfg.Spans == nil {
		return
	}
	var buf bytes.Buffer
	if err := m.cfg.Spans.WriteChromeTrace(&buf, tid); err != nil {
		m.log.Warn("trace export failed", obslog.String("id", id), obslog.String("err", err.Error()))
		return
	}
	path := filepath.Join(m.cfg.TraceDir, id+".trace.json")
	if err := atomicio.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		m.log.Warn("trace write failed", obslog.String("id", id), obslog.String("err", err.Error()))
	}
}

// execResult is one executed job's payload: the deterministic text
// report, checkpoint-resume metadata, and (campaign jobs) the
// structured result cells a fleet coordinator merges.
type execResult struct {
	report  string
	resumed int
	cells   []fault.Cell
	cached  bool // served from the result cache, not recomputed
}

// cacheManifest is the canonical content identity of a job: the
// normalized request fields that determine its report, plus the commit
// the binary was built from. Trace and TimeoutMs are deliberately
// absent — they are identity and policy, not content. Field order is
// fixed, so json.Marshal is a canonical encoding.
type cacheManifest struct {
	Tool      string   `json:"tool"`
	Commit    string   `json:"commit"`
	Kind      string   `json:"kind"`
	Arch      string   `json:"arch,omitempty"`
	Window    int      `json:"window"`
	Cluster   int      `json:"cluster,omitempty"`
	Workload  string   `json:"workload,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	Trials    int      `json:"trials,omitempty"`
	Archs     []string `json:"archs,omitempty"`
	Sites     []string `json:"sites,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
}

// cachePayload is what a cache entry stores: everything a later hit
// needs to answer the job without recomputing. Resumed-shard counts
// are invocation metadata, not content, and are not stored.
type cachePayload struct {
	Report string       `json:"report"`
	Cells  []fault.Cell `json:"cells,omitempty"`
}

// cacheKey derives the content-address for a normalized request.
func (m *Manager) cacheKey(req JobRequest) string {
	man, err := json.Marshal(cacheManifest{
		Tool: "usserve", Commit: m.cacheCommit,
		Kind: req.Kind, Arch: req.Arch, Window: req.Window, Cluster: req.Cluster,
		Workload: req.Workload, Seed: req.Seed, Trials: req.Trials,
		Archs: req.Archs, Sites: req.Sites, Workloads: req.Workloads,
	})
	if err != nil {
		return ""
	}
	return rescache.Key(man)
}

// execute dispatches one job: result-cache lookup first (integrity
// checked — a corrupt entry is quarantined inside the cache and comes
// back as a miss), then the engine entry point, then a best-effort
// store of the fresh result. A store failure never fails the job.
func (m *Manager) execute(ctx context.Context, job *Job, req JobRequest) (execResult, error) {
	if m.testExec != nil {
		rep, err := m.testExec(ctx, job)
		return execResult{report: rep}, err
	}
	var key string
	if m.cache != nil {
		key = m.cacheKey(req)
	}
	if key != "" {
		if data, ok := m.cache.Get(key); ok {
			var p cachePayload
			if err := json.Unmarshal(data, &p); err == nil {
				m.log.With("job").WithTrace(obslog.TraceID(job.Trace)).Info("served from cache",
					obslog.String("id", job.ID), obslog.String("key", key[:12]))
				return execResult{report: p.Report, cells: p.Cells, cached: true}, nil
			}
		}
	}
	res, err := m.compute(ctx, job, req)
	if err == nil && key != "" {
		if data, merr := json.Marshal(cachePayload{Report: res.report, Cells: res.cells}); merr == nil {
			m.cache.Put(key, data)
		}
	}
	return res, err
}

// compute runs one job on its engine entry point and renders the
// deterministic report.
func (m *Manager) compute(ctx context.Context, job *Job, req JobRequest) (execResult, error) {
	switch req.Kind {
	case "sim":
		cfg, err := exp.ArchConfig(req.Arch, req.Window, req.Cluster)
		if err != nil {
			return execResult{}, err
		}
		w, _ := kernelByName(req.Workload)
		res, err := core.RunCtx(ctx, w.Prog, w.Mem(), cfg)
		if err != nil {
			return execResult{}, err
		}
		return execResult{report: fmt.Sprintf(
			"usserve sim: arch=%s workload=%s window=%d cluster=%d\ncycles=%d retired=%d ipc=%.3f occupancy=%.1f\n",
			req.Arch, req.Workload, req.Window, req.Cluster,
			res.Stats.Cycles, res.Stats.Retired, res.Stats.IPC(), res.Stats.MeanOccupancy())}, nil
	case "sweep":
		rep, err := exp.IPCReportCtx(ctx, req.Window, req.Cluster)
		return execResult{report: rep}, err
	case "campaign":
		var sites []fault.Site
		for _, s := range req.Sites {
			site, _ := fault.SiteFromString(s) // validated at admission
			sites = append(sites, site)
		}
		var wls []workload.Workload
		for _, name := range req.Workloads {
			w, _ := campaignWorkloadByName(name) // validated at admission
			wls = append(wls, w)
		}
		rep, err := exp.RunFaultCampaignCtx(ctx, exp.FaultCampaignConfig{
			Seed:       req.Seed,
			Window:     req.Window,
			Cluster:    req.Cluster,
			N:          req.Trials,
			Archs:      req.Archs,
			Sites:      sites,
			Workloads:  wls,
			Detect:     fault.DetectGolden,
			Checkpoint: m.checkpointPath(job.ID),
			Progress: func(done, total int) {
				m.setProgress(job.ID, done, total)
			},
		})
		if err != nil {
			return execResult{}, err
		}
		// Resumed-shard count is invocation metadata: surfacing it in the
		// job record but zeroing it in the report keeps a resumed run's
		// report byte-identical to an uninterrupted one.
		resumed := rep.Resumed
		rep.Resumed = 0
		var b strings.Builder
		if err := rep.WriteText(&b); err != nil {
			return execResult{}, err
		}
		return execResult{report: b.String(), resumed: resumed, cells: rep.Cells}, nil
	}
	return execResult{}, fmt.Errorf("unknown job kind %q", req.Kind)
}

// classifyRunError maps an execution error into the taxonomy. A typed
// atomicio failure (or anything unwrapping to ENOSPC) is resource
// exhaustion — the simulation math was fine, the environment was not —
// and classifies as retryable rather than internal.
func classifyRunError(err error) string {
	var aioErr *atomicio.Error
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.DeadlineExceeded):
		return KindTimeout
	case errors.Is(err, context.Canceled):
		return KindCanceled
	case errors.Is(err, core.ErrLivelock):
		return KindLivelock
	case errors.As(err, &aioErr), errors.Is(err, syscall.ENOSPC):
		return KindResource
	default:
		return KindInternal
	}
}

// setProgress records one job's shard-completion count and wakes every
// progress watcher.
func (m *Manager) setProgress(id string, done, total int) {
	m.mu.Lock()
	m.progress[id] = shardProgress{Done: done, Total: total}
	m.progCond.Broadcast()
	m.mu.Unlock()
}

// Progress is one job's progress view: its lifecycle state plus, for
// campaign jobs, the shard-completion count.
type Progress struct {
	ID          string `json:"id"`
	Trace       string `json:"trace,omitempty"`
	State       string `json:"state"`
	ShardsDone  int    `json:"shards_done"`
	ShardsTotal int    `json:"shards_total"`
}

// terminalState reports whether a job state is final.
func terminalState(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCanceled, StateInterrupted:
		return true
	}
	return false
}

// progressLocked composes one job's progress view; m.mu must be held.
func (m *Manager) progressLocked(job *Job) Progress {
	p := m.progress[job.ID]
	return Progress{
		ID: job.ID, Trace: job.Trace, State: job.State,
		ShardsDone: p.Done, ShardsTotal: p.Total,
	}
}

// Progress returns one job's current progress.
func (m *Manager) Progress(id string) (Progress, *Error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return Progress{}, &Error{Kind: KindNotFound, Msg: "no job " + id, Status: 404}
	}
	return m.progressLocked(job), nil
}

// WaitProgress blocks until the job's progress view changes from prev
// (or the job is already terminal, or wake fires), then returns the
// current view. wake lets callers bound the wait: progCond has no
// timeout, so a watcher arranges an external Broadcast (e.g. via
// context.AfterFunc) and WaitProgress returns the unchanged view for
// the caller to notice its context died.
func (m *Manager) WaitProgress(id string, prev Progress, wake func() bool) (Progress, *Error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		job, ok := m.jobs[id]
		if !ok {
			return Progress{}, &Error{Kind: KindNotFound, Msg: "no job " + id, Status: 404}
		}
		cur := m.progressLocked(job)
		if cur != prev || terminalState(cur.State) || (wake != nil && wake()) {
			return cur, nil
		}
		m.progCond.Wait()
	}
}

// BreakerStates returns every config class whose breaker is not
// currently closed, keyed by class.
func (m *Manager) BreakerStates() map[string]string { return m.breakers.states() }

// snapshot copies a job for return outside the lock.
func snapshot(job *Job) *Job {
	cp := *job
	return &cp
}

// persistMsBounds buckets job-record appends: a write plus an fsync,
// tens of microseconds on a fast disk, up to seconds on a stalled one.
var persistMsBounds = []float64{
	0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 25, 100, 1000,
}

// persistLocked appends the job's record to the journal and fsyncs it;
// m.mu must be held. Holding the lock across the append is what orders
// durability before visibility: a job is on disk before a worker can
// claim it, and a finished or canceled state is on disk before any
// reader sees it. Persistence failures are deliberately non-fatal for
// the job itself (the in-memory state is authoritative while the
// process lives; the journal cut the failed record back off), but they
// are counted and logged — a silently unpersisted record is exactly
// the kind of state the resource-exhaustion chaos run exists to notice.
func (m *Manager) persistLocked(job *Job) {
	data, err := json.Marshal(job)
	if err != nil {
		return
	}
	start := m.cfg.Clock()
	err = m.journal.Append(data)
	if m.mPersist != nil {
		m.mPersist.Observe(float64(m.cfg.Clock().Sub(start)) / float64(time.Millisecond))
	}
	if err != nil {
		m.persistFailed(job.ID, err)
		return
	}
	m.reapCheckpoint(job)
}

// reapCheckpoint removes the checkpoint of a campaign job that is done,
// failed or canceled: with its terminal record on disk the job never
// resumes. Interrupted and queued jobs keep theirs. persistLocked calls
// it after the terminal append, and recover for every job it loads, so a
// file left by a failed remove, by a crash between the append and the
// remove, or by a binary that did not reap is gone after the next start.
// The remove's error is dropped: a missing file is the common case.
func (m *Manager) reapCheckpoint(job *Job) {
	switch job.State {
	case StateDone, StateFailed, StateCanceled:
		if job.Request.Kind == "campaign" {
			_ = os.Remove(m.checkpointPath(job.ID))
		}
	}
}

// checkpointPath is the shard checkpoint of campaign job id.
func (m *Manager) checkpointPath(id string) string {
	return filepath.Join(m.cfg.Dir, "checkpoints", id+".ckpt")
}

// persistFailed counts and logs a failed journal write.
func (m *Manager) persistFailed(id string, err error) {
	if m.mPersistErr != nil {
		m.mPersistErr.Inc()
	}
	m.log.Warn("job record persist failed", obslog.String("id", id), obslog.String("err", err.Error()))
}

// gaugeDepth publishes the queue depth; m.mu must be held.
func (m *Manager) gaugeDepth() {
	if m.mDepth != nil {
		m.mDepth.Set(float64(m.depth))
	}
}
