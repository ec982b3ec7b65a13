package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ultrascalar/internal/exp"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
)

// fault_campaign: one unit is the full default campaign (3 machines x 3
// workloads x 7 sites) at n = 16 with 64 trials per cell and golden
// detection, on seed S+k for k = 0..15 in turn; each seed draws other
// faults, and so does other work, so a run averages over sixteen. This
// is what usfault, serve campaign jobs and fleet shards run: thousands
// of tiny faulted core.RunCtx calls on the full-rescan forwarding path,
// each paying per-run set-up, fault.NewPlan and the golden checker.

const (
	campaignWindow = 16
	campaignTrials = 64
	campaignSeeds  = 16
)

func campaignConfig(seed int64) exp.FaultCampaignConfig {
	return exp.FaultCampaignConfig{Seed: seed, Window: campaignWindow, N: campaignTrials, Detect: fault.DetectGolden}
}

// campaignTrialCount is the number of faulted runs in one unit.
func campaignTrialCount() int { return len(exp.CampaignShards()) * campaignTrials }

// runCampaign runs one campaign and renders its report.
func runCampaign(ctx context.Context, cfg exp.FaultCampaignConfig) (string, error) {
	rep, err := exp.RunFaultCampaignCtx(ctx, cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// campaignRunner holds each seed's first report; every later report of
// the same seed must repeat it byte for byte.
type campaignRunner struct {
	seed    int64
	reports map[int64]string
	m       *measurement
	rec     *obslog.SpanRecorder
	// onShard, when set, observes shard completion (the campaign's
	// Progress callback).
	onShard func(done, total int)
}

// unit runs campaign k (seed S + k mod 16) and returns its wall time.
func (r *campaignRunner) unit(ctx context.Context, k int) (time.Duration, error) {
	seed := r.seed + int64(k%campaignSeeds)
	cfg := campaignConfig(seed)
	cfg.Progress = r.onShard
	sp := r.rec.Start("fault_campaign", "exp.RunFaultCampaignCtx", fmt.Sprintf("seed=%d", seed))
	t0 := time.Now()
	text, err := runCampaign(ctx, cfg)
	d := time.Since(t0)
	sp.End()
	if err == nil {
		if want, ok := r.reports[seed]; !ok {
			r.reports[seed] = text
		} else if want != text {
			err = fmt.Errorf("campaign seed %d: report differs from its first run", seed)
		}
	}
	r.m.op(err)
	return d, err
}

// setup runs the warm-up unit (seed S) three times and returns the
// times; the first run's report becomes seed S's reference.
func (r *campaignRunner) setup(ctx context.Context) ([]float64, error) {
	var setups []float64
	for i := 0; i < 3; i++ {
		d, err := r.unit(ctx, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return setups, nil
}

// phase runs units for d, cycling through the seeds, and returns
// unit times (ms) and trial rates (faulted runs per second).
func (r *campaignRunner) phase(ctx context.Context, d time.Duration) (ms, rates []float64) {
	trials := float64(campaignTrialCount())
	start := time.Now()
	for k := 1; ctx.Err() == nil && (time.Since(start) < d || len(ms) == 0); k++ {
		u, err := r.unit(ctx, k)
		if err != nil {
			continue
		}
		ms = append(ms, float64(u.Nanoseconds())/1e6)
		rates = append(rates, trials/u.Seconds())
	}
	return ms, rates
}

// checkSerial reruns seed S with one worker: the parallel campaign's
// report must equal the serial one.
func (r *campaignRunner) checkSerial(ctx context.Context) {
	prev := exp.SetSweepWorkers(1)
	text, err := runCampaign(ctx, campaignConfig(r.seed))
	exp.SetSweepWorkers(prev)
	if err == nil && text != r.reports[r.seed] {
		err = fmt.Errorf("campaign seed %d: report with workers=1 differs from the parallel run", r.seed)
	}
	r.m.op(err)
}

// usfaultRuns runs each seed's campaign through the usfault binary, as
// its users do, and returns the reports and the median peak RSS (MB).
// A campaign's peak depends on its seed's fault draws, so one seed alone
// would make the metric follow -seed.
func usfaultRuns(ctx context.Context, e *env) (map[int64]string, float64, error) {
	reports := map[int64]string{}
	var rss []float64
	for k := int64(0); k < campaignSeeds; k++ {
		seed := e.seed + k
		out, _, mb, err := runChild(ctx, e, "usfault", "-seed", fmt.Sprint(seed),
			"-window", fmt.Sprint(campaignWindow), "-n", fmt.Sprint(campaignTrials), "-detect", "golden")
		if err != nil {
			return nil, 0, err
		}
		reports[seed] = out
		rss = append(rss, mb)
	}
	return reports, median(rss), nil
}

// checkUsfault compares the usfault binary's reports with the
// in-process campaigns of the same seeds.
func (r *campaignRunner) checkUsfault(ctx context.Context, reports map[int64]string) {
	for seed, out := range reports {
		want, ok := r.reports[seed]
		var err error
		if !ok { // a phase too short to reach every seed
			want, err = runCampaign(ctx, campaignConfig(seed))
		}
		if err == nil && out != want {
			err = fmt.Errorf("usfault -seed %d: report differs from the in-process campaign", seed)
		}
		r.m.op(err)
	}
}

func runFaultCampaign(ctx context.Context, e *env) (*measurement, error) {
	binReports, rss, err := usfaultRuns(ctx, e)
	if err != nil {
		return nil, err
	}
	m := newMeasurement()
	r := &campaignRunner{seed: e.seed, reports: map[int64]string{}, m: m}
	setups, err := r.setup(ctx)
	if err != nil {
		return nil, err
	}
	ms, rates := r.phase(ctx, e.dur)
	r.checkSerial(ctx)
	r.checkUsfault(ctx, binReports)
	m.values["setup_s"] = median(setups)
	m.values["op_ms"] = median(ms)
	m.values["throughput_per_s"] = median(rates)
	m.values["peak_rss_mb"] = rss
	return m, nil
}

// campaignLayers runs the campaign phase traced (and profiled, when
// profile is set): shard times from the Progress callback, and the
// experiment worker pool's mean task time and utilization from its own
// instruments. With rec nil nothing is traced or instrumented and no
// layer metric is derived. It returns the median unit time.
func campaignLayers(ctx context.Context, e *env, d time.Duration, rec *obslog.SpanRecorder, profile string, m *measurement) (float64, error) {
	r := &campaignRunner{seed: e.seed, reports: map[int64]string{}, m: m, rec: rec}
	if _, err := r.setup(ctx); err != nil {
		return 0, err
	}
	if rec == nil {
		ms, _ := r.phase(ctx, d)
		return median(ms), nil
	}
	var shardMs []float64
	var last time.Time
	r.onShard = func(done, total int) {
		now := time.Now()
		if done > 0 {
			shardMs = append(shardMs, float64(now.Sub(last).Nanoseconds())/1e6)
		}
		last = now
	}
	reg := obs.NewRegistry()
	exp.SetPoolMetrics(reg)
	var ms []float64
	err := withProfile(profile, func() error {
		ms, _ = r.phase(ctx, d)
		return nil
	})
	exp.SetPoolMetrics(nil)
	if err != nil {
		return 0, err
	}
	r.checkSerial(ctx)

	task := reg.Peek(0).Histograms["exp.task_ms"]
	var utils []float64
	for _, s := range reg.Snapshots() {
		if u, ok := s.Gauges["exp.utilization"]; ok {
			utils = append(utils, u)
		}
	}
	if task.Count == 0 || len(utils) == 0 || len(shardMs) == 0 {
		return 0, fmt.Errorf("campaign phase recorded no pool tasks or shards")
	}
	m.values["campaign.shard_ms.p50"] = quantile(shardMs, 0.5)
	m.values["campaign.shard_ms.p99"] = quantile(shardMs, 0.99)
	// A trial takes tens of microseconds, below the histogram's first
	// bucket bound (0.1 ms), so its quantiles would only interpolate
	// inside that bucket; the exact sum gives the mean instead.
	m.values["exp.pool.task_us_mean"] = task.Sum / float64(task.Count) * 1e3
	m.values["exp.pool.utilization"] = median(utils)
	return median(ms), nil
}
