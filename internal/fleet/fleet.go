// Package fleet distributes a fault campaign across N usserve workers.
//
// The coordinator splits the campaign into its natural shards — the
// same (arch × workload × site) cells the single-process runner
// checkpoints — and dispatches each shard as one job over the worker
// job API, under a time-bounded lease. Point seeds are keyed by shard
// identity, so a shard run anywhere produces the exact cell a
// single-process campaign would, and the merged report is byte-
// identical for any worker count, any shard-to-worker assignment, and
// any interleaving of crashes and retries.
//
// Shard life cycle:
//
//	pending ──claim──▶ leased(worker, job, deadline) ──result──▶ done
//	   ▲                      │
//	   └──── backoff ◀────────┘  (lease expiry, missed heartbeats,
//	                              worker error, job failure)
//
// Failure handling is layered: heartbeats (progress polls) detect
// silent worker death in a few intervals; the lease deadline bounds
// total shard runtime even when the worker keeps answering; retries
// re-enter the pending queue behind capped exponential backoff with
// full jitter; per-worker circuit breakers (the serve breaker, keyed
// by worker URL) cool down a worker that keeps failing; and straggler
// shards are hedged — re-dispatched to an idle worker, first result
// wins, the loser is cancelled. Every merged result is appended to the
// campaign checkpoint (exp.Checkpoint) before the coordinator acts on
// it, so a SIGKILLed coordinator resumes without re-running completed
// shards.
package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ultrascalar/internal/exp"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
	"ultrascalar/internal/serve"
)

// CampaignSpec is the campaign being distributed: the parameters that
// shape results (and therefore the checkpoint fingerprint).
type CampaignSpec struct {
	Seed    int64 `json:"seed"`
	Window  int   `json:"window"`
	Cluster int   `json:"cluster"`
	Trials  int   `json:"trials"`
}

// Fingerprint names the run manifest: every campaign parameter that
// shapes results. Two runs share shard results exactly when their
// fingerprints match; anything else is a different campaign and a
// stale checkpoint must fail loudly, not merge silently.
func (s CampaignSpec) Fingerprint() string {
	return fmt.Sprintf("seed=%d n=%d window=%d cluster=%d detect=golden",
		s.Seed, s.Trials, s.Window, s.Cluster)
}

// Config tunes the coordinator.
type Config struct {
	// Workers is the worker base URLs (at least one).
	Workers []string
	// Campaign is the campaign to distribute.
	Campaign CampaignSpec
	// Checkpoint is the coordinator checkpoint path ("" = none: a
	// killed coordinator restarts from scratch).
	Checkpoint string
	// LeaseTTL bounds one shard dispatch end to end; past it the lease
	// expires and the shard is re-dispatched (default 2m).
	LeaseTTL time.Duration
	// Heartbeat is the progress-poll interval (default 500ms).
	Heartbeat time.Duration
	// MissedHeartbeats is how many consecutive failed polls declare the
	// worker silently dead (default 3).
	MissedHeartbeats int
	// HedgeAfter is the lease age past which an idle worker may hedge
	// the shard (default LeaseTTL/2; negative disables hedging).
	HedgeAfter time.Duration
	// MaxHedges caps extra leases per shard (default 1).
	MaxHedges int
	// LeasesPerWorker is the concurrent leases each worker is offered
	// (default 2, matching the usserve default executor count).
	LeasesPerWorker int
	// Retry is the backoff policy for shard re-dispatch (zero value =
	// DefaultPolicy).
	Retry Policy
	// RetryBudget bounds retry amplification: the fraction of total
	// dispatches that may be retries (default 0.5; negative = no
	// budget). Once spent, shards still re-dispatch — the campaign must
	// converge — but only on the slow lane: the full un-jittered
	// Policy.Max wait, with hedging (speculative extra dispatches)
	// suppressed. A fleet retrying into an overloaded worker set
	// therefore decays to at most one retry per Max interval per shard
	// instead of multiplying the load that caused the failures.
	RetryBudget float64
	// BreakerThreshold / BreakerCooldown tune the per-worker circuit
	// breaker (defaults 3 and 15s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Metrics receives fleet telemetry (nil = off).
	Metrics *obs.Registry
	// Log receives structured fleet events (nil = off).
	Log *obslog.Logger
	// Clock defaults to time.Now; tests may inject a fake for breaker
	// cooldowns (lease timing always uses real sleeps).
	Clock serve.Clock
	// Rand supplies backoff jitter in [0,1) (default math/rand).
	Rand func() float64
}

// withDefaults fills the zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Minute
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.MissedHeartbeats <= 0 {
		cfg.MissedHeartbeats = 3
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = cfg.LeaseTTL / 2
	}
	if cfg.MaxHedges <= 0 {
		cfg.MaxHedges = 1
	}
	if cfg.LeasesPerWorker <= 0 {
		cfg.LeasesPerWorker = 2
	}
	cfg.Retry = cfg.Retry.withDefaults()
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 0.5
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 15 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64
	}
	return cfg
}

// lease is one active shard dispatch.
type lease struct {
	worker   string
	jobID    string
	start    time.Time
	deadline time.Time
	hedge    bool
}

// shardState is one shard's coordinator-side record.
type shardState struct {
	shard     exp.CampaignShard
	attempts  int       // dispatches so far (drives backoff)
	notBefore time.Time // backoff gate for re-dispatch
	leases    []*lease
	done      bool
	cell      fault.Cell
}

// workerState is one worker's coordinator-side record.
type workerState struct {
	client    *Client
	notBefore time.Time // backpressure gate (Retry-After)
	active    int
	done      int
	retries   int
}

// Retry reasons, as labeled on the fleet.retries counter.
const (
	retrySubmit       = "submit-error"
	retryJobFailed    = "job-failed"
	retryLeaseExpired = "lease-expired"
	retryWorkerDead   = "worker-dead"
)

// Coordinator runs one distributed campaign.
type Coordinator struct {
	cfg      Config
	breakers *serve.Breakers
	log      *obslog.Logger

	mu        sync.Mutex
	cond      *sync.Cond
	shards    []*shardState
	ckpt      *exp.Checkpoint // merged results by shard key
	doneCount int
	resumed   int
	runErr    error
	workers   map[string]*workerState

	// event tallies mirrored into Status (metrics hold the same data,
	// but Status must work with a nil registry).
	dispatches      int
	retries         int
	leaseExpired    int
	hedges          int
	hedgeWins       int
	budgetExhausted int
}

// overBudget reports whether one more retry would push the retry count
// past budget·dispatches. Retries themselves count as dispatches, so
// under sustained failure the ratio tends to 1 and the budget stays
// exhausted until fresh work succeeds.
func overBudget(budget float64, retries, dispatches int) bool {
	if budget < 0 {
		return false
	}
	return float64(retries+1) > budget*float64(dispatches)
}

func (c *Coordinator) overBudgetLocked() bool {
	return overBudget(c.cfg.RetryBudget, c.retries, c.dispatches)
}

// New builds a coordinator. Run may be called once.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fleet: at least one worker URL is required")
	}
	if cfg.Campaign.Window < 1 {
		return nil, fmt.Errorf("fleet: campaign window must be >= 1, got %d", cfg.Campaign.Window)
	}
	if cfg.Campaign.Trials < 1 {
		return nil, fmt.Errorf("fleet: campaign needs trials >= 1, got %d", cfg.Campaign.Trials)
	}
	c := &Coordinator{
		cfg:      cfg,
		breakers: serve.NewBreakers(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock),
		log:      cfg.Log.With("fleet"),
		workers:  map[string]*workerState{},
	}
	c.cond = sync.NewCond(&c.mu)
	// The per-request timeout scales with the heartbeat: a hung worker
	// (SIGSTOP, wedged disk) must fail a poll within a few heartbeats,
	// not after a long generic HTTP timeout — silent-death detection is
	// MissedHeartbeats × (poll timeout + interval) end to end.
	reqTimeout := 4 * cfg.Heartbeat
	if reqTimeout < time.Second {
		reqTimeout = time.Second
	}
	if reqTimeout > 10*time.Second {
		reqTimeout = 10 * time.Second
	}
	for _, w := range cfg.Workers {
		if _, dup := c.workers[w]; dup {
			return nil, fmt.Errorf("fleet: duplicate worker URL %s", w)
		}
		cl := NewClient(w)
		cl.HTTP.Timeout = reqTimeout
		c.workers[w] = &workerState{client: cl}
	}
	c.breakers.OnTransition(func(worker, from, to string) {
		c.gaugeSet("fleet.breaker_state", serve.BreakerStateValue(to), obs.Label{Key: "worker", Value: worker})
		c.inc("fleet.breaker_transitions", obs.Label{Key: "worker", Value: worker}, obs.Label{Key: "to", Value: to})
	})
	return c, nil
}

// metric helpers — every call tolerates a nil registry.

func (c *Coordinator) inc(name string, labels ...obs.Label) {
	if r := c.cfg.Metrics; r != nil {
		r.Counter(obs.LabeledName(name, labels...)).Inc()
	}
}

func (c *Coordinator) gaugeSet(name string, v float64, labels ...obs.Label) {
	if r := c.cfg.Metrics; r != nil {
		r.Gauge(obs.LabeledName(name, labels...)).Set(v)
	}
}

// shardMsBounds buckets shard latencies from trivial cells to hedged
// stragglers.
var shardMsBounds = []float64{10, 30, 100, 300, 1000, 3000, 10000, 30000, 120000}

func (c *Coordinator) observeShardMs(ms float64) {
	if r := c.cfg.Metrics; r != nil {
		r.Histogram("fleet.shard_ms", shardMsBounds).Observe(ms)
	}
}

// traceFor derives the trace ID one dispatch attempt shares with its
// worker-side job: coordinator lease events and worker job events
// carry the same 16-hex identity.
func (c *Coordinator) traceFor(key string, attempt int) obslog.TraceID {
	return obslog.DeriveTraceID(fmt.Sprintf("fleet:%s:%s:%d", c.cfg.Campaign.Fingerprint(), key, attempt))
}

// Run distributes the campaign and returns the merged report. The
// report is byte-identical (via fault.Report.WriteText) to a single-
// process campaign with the same spec, regardless of worker count,
// crashes, retries or hedging.
func (c *Coordinator) Run(ctx context.Context) (*fault.Report, error) {
	shards := exp.CampaignShards()
	ckpt, err := exp.OpenCheckpoint(c.cfg.Checkpoint, c.cfg.Campaign.Fingerprint())
	if err != nil {
		return nil, err
	}
	defer ckpt.Close()
	c.mu.Lock()
	c.ckpt = ckpt
	for _, sh := range shards {
		st := &shardState{shard: sh}
		if cell, ok := ckpt.Cells()[sh.Key()]; ok {
			st.done, st.cell = true, cell
			c.doneCount++
			c.resumed++
		}
		c.shards = append(c.shards, st)
	}
	total := len(c.shards)
	c.mu.Unlock()

	c.gaugeSet("fleet.shards_total", float64(total))
	c.gaugeSet("fleet.shards_done", float64(c.doneCount))
	c.log.Info("fleet start",
		obslog.Int("shards", total), obslog.Int("resumed", c.resumed),
		obslog.Int("workers", len(c.cfg.Workers)),
		obslog.Int64("seed", c.cfg.Campaign.Seed), obslog.Int("window", c.cfg.Campaign.Window))

	// Timed conditions (backoff gates, lease ages, breaker cooldowns)
	// have no edge to wake on, so a ticker broadcasts the claim cond at
	// a fraction of the heartbeat.
	tick := c.cfg.Heartbeat / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	tickCtx, stopTick := context.WithCancel(context.Background())
	defer stopTick()
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-tickCtx.Done():
				return
			case <-t.C:
				c.cond.Broadcast()
			}
		}
	}()
	// ctx cancellation must unblock claim waits too.
	stopWake := context.AfterFunc(ctx, func() { c.cond.Broadcast() })
	defer stopWake()

	var wg sync.WaitGroup
	for _, w := range c.cfg.Workers {
		for i := 0; i < c.cfg.LeasesPerWorker; i++ {
			wg.Add(1)
			go func(worker string) {
				defer wg.Done()
				c.agent(ctx, worker)
			}(w)
		}
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runErr != nil {
		return nil, c.runErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fleet: stopped after %d/%d shards: %w", c.doneCount, total, err)
	}
	rep := &fault.Report{
		Seed: c.cfg.Campaign.Seed, N: c.cfg.Campaign.Trials,
		Window: c.cfg.Campaign.Window, Detect: fault.DetectGolden.String(),
		Shards: total,
		// Resumed stays zero: resume is invocation metadata, and the
		// merged report must be byte-identical to an uninterrupted run.
		Resumed: 0,
	}
	for _, st := range c.shards {
		rep.Cells = append(rep.Cells, st.cell)
	}
	rep.SortCells()
	c.log.Info("fleet done", obslog.Int("shards", total),
		obslog.Int("retries", c.retries), obslog.Int("hedge_wins", c.hedgeWins))
	return rep, nil
}

// agent is one lease slot against one worker: claim a shard, run the
// lease, repeat until the campaign is finished or aborted.
func (c *Coordinator) agent(ctx context.Context, worker string) {
	for {
		sh, l := c.claim(ctx, worker)
		if sh == nil {
			return
		}
		c.runLease(ctx, worker, sh, l)
	}
}

// claim blocks until this worker may start a lease: a pending shard
// past its backoff gate, or — when nothing is pending — a straggler
// worth hedging. Returns (nil, nil) when the campaign is finished,
// fatally failed, or ctx is done.
func (c *Coordinator) claim(ctx context.Context, worker string) (*shardState, *lease) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.runErr != nil || c.doneCount == len(c.shards) || ctx.Err() != nil {
			return nil, nil
		}
		now := c.cfg.Clock()
		ws := c.workers[worker]
		if now.After(ws.notBefore) {
			if st, hedge := c.claimableLocked(worker, now); st != nil {
				// The breaker check sits after candidate selection so a
				// half-open probe slot is only consumed when there is
				// work to probe with.
				if berr := c.breakers.Allow(worker); berr == nil {
					l := &lease{worker: worker, start: now, hedge: hedge}
					st.leases = append(st.leases, l)
					st.attempts++
					c.dispatches++
					ws.active++
					c.gaugeSet("fleet.worker_queue_depth", float64(ws.active), obs.Label{Key: "worker", Value: worker})
					if hedge {
						c.hedges++
						c.inc("fleet.hedges", obs.Label{Key: "worker", Value: worker})
					}
					return st, l
				}
			}
		}
		c.cond.Wait()
	}
}

// claimableLocked picks this worker's next shard: first a pending one
// (no active lease, backoff gate passed), else the oldest straggler
// eligible for a hedge. c.mu must be held.
func (c *Coordinator) claimableLocked(worker string, now time.Time) (*shardState, bool) {
	for _, st := range c.shards {
		if !st.done && len(st.leases) == 0 && now.After(st.notBefore) {
			return st, false
		}
	}
	if c.cfg.HedgeAfter < 0 {
		return nil, false
	}
	// Hedges are speculative extra dispatches; with the retry budget
	// spent the fleet is already amplifying load, which is exactly when
	// speculation must stop.
	if c.overBudgetLocked() {
		return nil, false
	}
	var pick *shardState
	var pickAge time.Duration
	for _, st := range c.shards {
		if st.done || len(st.leases) == 0 || len(st.leases) > c.cfg.MaxHedges {
			continue
		}
		mine := false
		oldest := st.leases[0].start
		for _, l := range st.leases {
			if l.worker == worker {
				mine = true
			}
			if l.start.Before(oldest) {
				oldest = l.start
			}
		}
		if mine {
			continue
		}
		if age := now.Sub(oldest); age >= c.cfg.HedgeAfter && (pick == nil || age > pickAge) {
			pick, pickAge = st, age
		}
	}
	return pick, pick != nil
}

// release drops a lease without a result. c.mu must not be held.
func (c *Coordinator) release(sh *shardState, l *lease) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, x := range sh.leases {
		if x == l {
			sh.leases = append(sh.leases[:i], sh.leases[i+1:]...)
			break
		}
	}
	ws := c.workers[l.worker]
	ws.active--
	c.gaugeSet("fleet.worker_queue_depth", float64(ws.active), obs.Label{Key: "worker", Value: l.worker})
	c.cond.Broadcast()
}

// retryShard re-queues a shard behind its backoff gate after a failed
// lease, honoring any server Retry-After hint.
func (c *Coordinator) retryShard(sh *shardState, l *lease, reason string, retryAfter time.Duration) {
	c.mu.Lock()
	over := c.overBudgetLocked()
	var wait time.Duration
	if over {
		// Budget spent: slow lane. The shard still re-enters the queue —
		// the campaign must converge — but at the policy's full ceiling,
		// un-jittered, so retries cannot amplify whatever overload is
		// causing the failures. A Retry-After hint can only lengthen it.
		wait = c.cfg.Retry.Max
		if retryAfter > wait {
			wait = retryAfter
		}
		c.budgetExhausted++
	} else {
		wait = c.cfg.Retry.Wait(sh.attempts, retryAfter, c.cfg.Rand)
	}
	sh.notBefore = c.cfg.Clock().Add(wait)
	c.retries++
	c.workers[l.worker].retries++
	if reason == retryLeaseExpired {
		c.leaseExpired++
	}
	c.mu.Unlock()
	c.inc("fleet.retries", obs.Label{Key: "reason", Value: reason})
	if over {
		c.inc("fleet.retry_budget_exhausted", obs.Label{Key: "reason", Value: reason})
	}
	if reason == retryLeaseExpired {
		c.inc("fleet.lease_expired", obs.Label{Key: "worker", Value: l.worker})
	}
	c.log.Warn("shard retry",
		obslog.String("shard", sh.shard.Key()), obslog.String("worker", l.worker),
		obslog.String("reason", reason), obslog.Int("attempts", sh.attempts),
		obslog.Duration("backoff", wait), obslog.Bool("budget_exhausted", over))
	c.release(sh, l)
}

// shardDone reports whether the shard already has a merged result.
func (c *Coordinator) shardDone(sh *shardState) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sh.done
}

// sleepCtx waits d or until ctx is done; false means ctx won.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// terminal reports whether a job state is final.
func terminal(state string) bool {
	switch state {
	case serve.StateDone, serve.StateFailed, serve.StateCanceled, serve.StateInterrupted:
		return true
	}
	return false
}

// bgCancel best-effort cancels a job outside the run context (used for
// hedge losers and expired leases, where the run may be shutting down).
func bgCancel(cl *Client, jobID string) {
	if jobID == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cl.Cancel(ctx, jobID)
}

// runLease executes one lease: submit the shard as a job, heartbeat it
// to completion, and merge or retry.
func (c *Coordinator) runLease(ctx context.Context, worker string, sh *shardState, l *lease) {
	ws := c.workers[worker]
	cl := ws.client
	trace := c.traceFor(sh.shard.Key(), sh.attempts)
	lg := c.log.WithTrace(trace)

	req := serve.JobRequest{
		Kind:      "campaign",
		Seed:      c.cfg.Campaign.Seed,
		Window:    c.cfg.Campaign.Window,
		Cluster:   c.cfg.Campaign.Cluster,
		Trials:    c.cfg.Campaign.Trials,
		Archs:     []string{sh.shard.Arch},
		Workloads: []string{sh.shard.Workload},
		Sites:     []string{sh.shard.Site},
		Trace:     string(trace),
		// Deadline propagation: the worker-side job is bounded by the
		// lease. When the lease expires the coordinator walks away and
		// re-dispatches — without this the abandoned job would keep
		// burning worker capacity until the service's own default
		// timeout, amplifying the overload that slowed it down.
		TimeoutMs: c.cfg.LeaseTTL.Milliseconds(),
	}
	job, err := cl.Submit(ctx, req)
	if err != nil {
		herr, isHTTP := err.(*HTTPError)
		if isHTTP && herr.Backpressure() {
			// Flow control from a healthy worker: gate the worker, not
			// the shard — another worker may take it immediately.
			c.mu.Lock()
			ws.notBefore = c.cfg.Clock().Add(c.cfg.Retry.Wait(sh.attempts, herr.RetryAfter, c.cfg.Rand))
			c.mu.Unlock()
			c.inc("fleet.backpressure", obs.Label{Key: "worker", Value: worker}, obs.Label{Key: "kind", Value: herr.Kind})
			lg.Info("worker backpressure",
				obslog.String("worker", worker), obslog.String("kind", herr.Kind),
				obslog.Duration("retry_after", herr.RetryAfter))
			c.release(sh, l)
			return
		}
		if c.breakers.Report(worker, !IsBreakerFailure(err)) {
			lg.Warn("worker breaker opened", obslog.String("worker", worker))
		}
		c.retryShard(sh, l, retrySubmit, 0)
		return
	}
	c.mu.Lock()
	l.jobID = job.ID
	l.deadline = l.start.Add(c.cfg.LeaseTTL)
	c.mu.Unlock()
	lg.Info("shard leased",
		obslog.String("shard", sh.shard.Key()), obslog.String("worker", worker),
		obslog.String("job", job.ID), obslog.Bool("hedge", l.hedge))

	misses := 0
	var last serve.Progress
	for {
		if c.shardDone(sh) {
			// Another lease won the race (hedge or duplicate path):
			// this dispatch is the loser — cancel it and walk away.
			bgCancel(cl, job.ID)
			c.inc("fleet.hedge_losses", obs.Label{Key: "worker", Value: worker})
			lg.Info("hedge loser cancelled",
				obslog.String("shard", sh.shard.Key()), obslog.String("worker", worker))
			c.release(sh, l)
			return
		}
		if c.cfg.Clock().After(l.deadline) {
			bgCancel(cl, job.ID)
			lg.Warn("lease expired",
				obslog.String("shard", sh.shard.Key()), obslog.String("worker", worker),
				obslog.Duration("ttl", c.cfg.LeaseTTL))
			c.retryShard(sh, l, retryLeaseExpired, 0)
			return
		}
		if !sleepCtx(ctx, c.cfg.Heartbeat) {
			c.release(sh, l)
			return
		}
		p, perr := cl.Progress(ctx, job.ID)
		if perr != nil {
			if ctx.Err() != nil {
				c.release(sh, l)
				return
			}
			misses++
			lg.Warn("heartbeat missed",
				obslog.String("worker", worker), obslog.String("job", job.ID),
				obslog.Int("misses", misses), obslog.String("err", perr.Error()))
			if misses >= c.cfg.MissedHeartbeats {
				// Silent death: the worker stopped answering for its
				// job. Count it against the worker and re-dispatch.
				if c.breakers.Report(worker, false) {
					lg.Warn("worker breaker opened", obslog.String("worker", worker))
				}
				c.retryShard(sh, l, retryWorkerDead, 0)
				return
			}
			continue
		}
		misses = 0
		last = p
		if terminal(p.State) {
			break
		}
	}

	if last.State != serve.StateDone {
		// The worker finished the job without a result: failed, canceled
		// under us, or interrupted by a worker restart. All re-dispatch.
		rec, gerr := cl.Job(ctx, job.ID)
		kind := rec.ErrorKind
		if gerr != nil {
			kind = "unknown"
		}
		c.breakers.Report(worker, !IsBreakerFailure(gerr))
		lg.Warn("shard job did not complete",
			obslog.String("shard", sh.shard.Key()), obslog.String("worker", worker),
			obslog.String("state", last.State), obslog.String("error_kind", kind))
		c.retryShard(sh, l, retryJobFailed, 0)
		return
	}

	rec, gerr := cl.Job(ctx, job.ID)
	if gerr != nil {
		if c.breakers.Report(worker, !IsBreakerFailure(gerr)) {
			lg.Warn("worker breaker opened", obslog.String("worker", worker))
		}
		c.retryShard(sh, l, retryWorkerDead, 0)
		return
	}
	c.breakers.Report(worker, true)
	c.merge(sh, l, rec, lg)
}

// merge delivers one lease's result: first result wins, the checkpoint
// is durably written before the win is visible, and a duplicate result
// (a hedge race both sides of which completed) is cross-checked
// byte-for-byte — a mismatch is a determinism violation and aborts the
// run loudly rather than shipping a report that depends on scheduling.
func (c *Coordinator) merge(sh *shardState, l *lease, rec serve.Job, lg *obslog.Logger) {
	if len(rec.Cells) != 1 {
		c.fatal(fmt.Errorf("fleet: shard %s returned %d cells, want exactly 1 — worker %s is not speaking the shard protocol",
			sh.shard.Key(), len(rec.Cells), l.worker))
		c.release(sh, l)
		return
	}
	cell := rec.Cells[0]

	c.mu.Lock()
	if sh.done {
		dup := sh.cell
		c.mu.Unlock()
		c.inc("fleet.duplicate_results", obs.Label{Key: "worker", Value: l.worker})
		lg.Info("duplicate result discarded",
			obslog.String("shard", sh.shard.Key()), obslog.String("worker", l.worker),
			obslog.Bool("hedge", l.hedge))
		if dup != cell {
			c.fatal(fmt.Errorf("fleet: shard %s produced divergent results across workers (%+v vs %+v) — determinism violation",
				sh.shard.Key(), dup, cell))
		}
		c.release(sh, l)
		return
	}
	// Checkpoint before the result becomes visible: a coordinator
	// killed between these two steps re-runs the shard (idempotent by
	// key), never loses a merged result it acted on.
	if err := c.ckpt.Record(sh.shard.Key(), cell); err != nil {
		c.mu.Unlock()
		c.fatal(err)
		c.release(sh, l)
		return
	}
	sh.done, sh.cell = true, cell
	c.doneCount++
	c.workers[l.worker].done++
	doneCount := c.doneCount
	if l.hedge {
		c.hedgeWins++
	}
	// Reap the other lease holders proactively: first result wins,
	// losers are cancelled rather than left to run out their leases.
	var losers []*lease
	for _, x := range sh.leases {
		if x != l && x.jobID != "" {
			losers = append(losers, x)
		}
	}
	c.mu.Unlock()

	c.inc("fleet.checkpoint_writes")
	c.gaugeSet("fleet.shards_done", float64(doneCount))
	if l.hedge {
		c.inc("fleet.hedge_wins", obs.Label{Key: "worker", Value: l.worker})
	}
	c.observeShardMs(float64(c.cfg.Clock().Sub(l.start).Nanoseconds()) / 1e6)
	for _, x := range losers {
		go bgCancel(c.workers[x.worker].client, x.jobID)
	}
	lg.Info("shard merged",
		obslog.String("shard", sh.shard.Key()), obslog.String("worker", l.worker),
		obslog.Int("done", doneCount), obslog.Int("total", len(c.shards)),
		obslog.Bool("hedge", l.hedge))
	c.release(sh, l)
}

// fatal records the first fatal error and wakes every agent to exit.
func (c *Coordinator) fatal(err error) {
	c.mu.Lock()
	if c.runErr == nil {
		c.runErr = err
	}
	c.mu.Unlock()
	c.cond.Broadcast()
	c.log.Error("fleet fatal", obslog.String("err", err.Error()))
}

// WorkerView is one worker's slice of the fleet status.
type WorkerView struct {
	URL          string `json:"url"`
	Breaker      string `json:"breaker"`
	ActiveLeases int    `json:"active_leases"`
	Done         int    `json:"done"`
	Retries      int    `json:"retries"`
}

// Status is a point-in-time fleet snapshot, served by usfleet -status
// and rendered by usstat -fleet.
type Status struct {
	State        string `json:"state"` // running | done | failed
	ShardsTotal  int    `json:"shards_total"`
	ShardsDone   int    `json:"shards_done"`
	Resumed      int    `json:"resumed"`
	Dispatches   int    `json:"dispatches"`
	Retries      int    `json:"retries"`
	LeaseExpired int    `json:"lease_expired"`
	Hedges       int    `json:"hedges"`
	HedgeWins    int    `json:"hedge_wins"`
	// BudgetExhausted counts retries that were forced onto the slow
	// lane because the retry budget was spent.
	BudgetExhausted int          `json:"budget_exhausted"`
	Workers         []WorkerView `json:"workers"`
	Err             string       `json:"error,omitempty"`
}

// Status snapshots the fleet.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		State:       "running",
		ShardsTotal: len(c.shards), ShardsDone: c.doneCount,
		Resumed: c.resumed, Dispatches: c.dispatches, Retries: c.retries,
		LeaseExpired: c.leaseExpired, Hedges: c.hedges, HedgeWins: c.hedgeWins,
		BudgetExhausted: c.budgetExhausted,
	}
	if c.runErr != nil {
		st.State, st.Err = "failed", c.runErr.Error()
	} else if len(c.shards) > 0 && c.doneCount == len(c.shards) {
		st.State = "done"
	}
	for _, url := range c.cfg.Workers {
		ws := c.workers[url]
		st.Workers = append(st.Workers, WorkerView{
			URL: url, Breaker: c.breakers.State(url),
			ActiveLeases: ws.active, Done: ws.done, Retries: ws.retries,
		})
	}
	return st
}
