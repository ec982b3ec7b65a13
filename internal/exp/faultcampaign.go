package exp

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ultrascalar/internal/core"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/isa"
	obslog "ultrascalar/internal/obs/log"
	"ultrascalar/internal/ref"
	"ultrascalar/internal/workload"
)

// A fault campaign measures architectural vulnerability: it sweeps
// single-fault injection runs over (architecture × workload × fault site
// × n trials), classifies each point (masked, recovered, silent data
// corruption, crash) against the fault-free golden run, and aggregates a
// deterministic report. Determinism contract: the campaign is a pure
// function of its configuration — every point's fault plan derives from
// the campaign seed and the point's indices, so identical configurations
// produce byte-identical reports across runs and across worker counts.
//
// Long campaigns checkpoint after every completed shard (one arch ×
// workload × site cell); an interrupted campaign resumes by skipping
// shards already in the checkpoint file, after verifying the file was
// written by an identically-configured campaign.

// FaultArchs lists the architectures a campaign can sweep.
var FaultArchs = []string{"hybrid", "ultra1", "ultra2"}

// FaultCampaignConfig configures one fault-injection campaign.
type FaultCampaignConfig struct {
	// Seed drives every fault draw in the campaign.
	Seed int64
	// Window is the station count n.
	Window int
	// Cluster is the hybrid's cluster size C (default max(Window/4, 1)).
	Cluster int
	// N is the number of injection trials per (arch × workload × site)
	// cell.
	N int
	// Archs selects architectures (subset of FaultArchs; nil = all).
	Archs []string
	// Sites selects fault sites (nil = all).
	Sites []fault.Site
	// Detect selects the modeled detection hardware for every run.
	Detect fault.Detect
	// Workloads selects the programs (nil = FaultWorkloads()).
	Workloads []workload.Workload
	// Checkpoint is the shard checkpoint file path ("" disables
	// checkpointing).
	Checkpoint string
	// Progress, when set, observes shard completion: it is called once
	// at campaign start and once after every shard settles (resumed from
	// checkpoint or freshly run) with the completed and total counts.
	// Purely observational — it must not influence results.
	Progress func(done, total int)
}

// FaultWorkloads returns the default campaign suite: small kernels that
// exercise ALU chains, memory traffic and data-dependent branching while
// keeping a full campaign fast.
func FaultWorkloads() []workload.Workload {
	return []workload.Workload{
		workload.Fib(10),
		workload.VecSum(16),
		workload.GCD(1071, 462),
	}
}

// faultShard is one (arch × workload × site) unit of campaign work and
// checkpointing.
type faultShard struct {
	arch string
	wl   workload.Workload
	site fault.Site
}

// key is the shard's stable checkpoint identity.
func (s faultShard) key() string {
	return s.arch + "/" + s.wl.Name + "/" + s.site.String()
}

// faultPoint is one classified injection trial.
type faultPoint struct {
	out      fault.Outcome
	extra    int64 // faulted minus clean cycles (recovered points)
	squashed int64
	watchdog bool
}

// ArchConfig builds the engine configuration for one architecture name
// ("ultra1", "ultra2" or "hybrid") at window size n; c is the hybrid's
// cluster size and is ignored by the flat architectures. The three
// processors differ only in refill granularity: the Ultrascalar I
// refills each station (1), the Ultrascalar II the whole batch (n) and
// the hybrid each cluster (c). Every tool that names an architecture
// (serve, usfault, ustrace, usbench, perfledger) builds its
// configuration here, so a config class means the same thing
// everywhere.
func ArchConfig(arch string, n, c int) (core.Config, error) {
	switch arch {
	case "ultra1":
		return core.Config{Window: n, Granularity: 1}, nil
	case "ultra2":
		return core.Config{Window: n, Granularity: n}, nil
	case "hybrid":
		return core.Config{Window: n, Granularity: c}, nil
	}
	return core.Config{}, fmt.Errorf("exp: unknown architecture %q (want one of %s)",
		arch, strings.Join(FaultArchs, ", "))
}

// pointSeed derives one trial's fault-plan seed from the campaign seed
// and the point's identity — FNV-1a over the shard key, mixed with the
// trial index through a splitmix64 finalizer, so neighbouring points
// get decorrelated draws and the mapping is a pure function. Keying on
// the shard's *identity* (arch/workload/site) rather than its index in
// the shard list is what makes sub-campaigns composable: a fleet worker
// running any subset of the cells draws exactly the seeds the full
// campaign would, so merged fleet reports are byte-identical to a
// single-process run.
func pointSeed(campaign int64, shardKey string, i int) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for j := 0; j < len(shardKey); j++ {
		h ^= uint64(shardKey[j])
		h *= prime64
	}
	z := uint64(campaign) ^ h ^ 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// CampaignShard names one (arch × workload × site) campaign cell — the
// unit of checkpointing, and the unit of distribution when a fleet
// coordinator spreads a campaign across workers.
type CampaignShard struct {
	Arch     string
	Workload string
	Site     string
}

// Key is the shard's stable identity: the same string the campaign
// checkpointer records and pointSeed hashes.
func (s CampaignShard) Key() string {
	return s.Arch + "/" + s.Workload + "/" + s.Site
}

// CampaignShards enumerates the default full campaign's shards in the
// deterministic order the campaign runner sweeps them (arch-major, then
// workload, then site). A fleet coordinator partitions this list; each
// element round-trips into a single-cell sub-campaign whose one result
// cell is byte-identical to the corresponding cell of the full run.
func CampaignShards() []CampaignShard {
	var out []CampaignShard
	for _, arch := range FaultArchs {
		for _, wl := range FaultWorkloads() {
			for _, site := range fault.AllSites() {
				out = append(out, CampaignShard{Arch: arch, Workload: wl.Name, Site: site.String()})
			}
		}
	}
	return out
}

// stateMatches compares a faulted run's final architectural state against
// the fault-free golden run.
func stateMatches(res *core.Result, golden *ref.Result) bool {
	if res.Stats.Retired != int64(golden.Executed) {
		return false
	}
	for r := range golden.Regs {
		if res.Regs[r] != golden.Regs[r] {
			return false
		}
	}
	return res.Mem.Equal(golden.Mem)
}

// classify maps one run's fault log, error and end state to an outcome.
func classify(log *fault.Log, err error, stateOK bool) fault.Outcome {
	switch {
	case err != nil:
		return fault.OutcomeCrash
	case log.Applied == 0:
		return fault.OutcomeVacuous
	case log.Detected > 0 && stateOK:
		return fault.OutcomeRecovered
	case log.Detected > 0:
		return fault.OutcomeRecoveryFailed
	case stateOK:
		return fault.OutcomeMasked
	default:
		return fault.OutcomeSDC
	}
}

// RunFaultCampaign executes the campaign and returns its report. With a
// checkpoint path configured, completed shards are written to the file
// as the campaign progresses and already-checkpointed shards are skipped
// on restart.
func RunFaultCampaign(cfg FaultCampaignConfig) (*fault.Report, error) {
	return RunFaultCampaignCtx(nil, cfg)
}

// RunFaultCampaignCtx is RunFaultCampaign bounded by ctx. Cancellation
// is clean at two granularities: between shards the runner checks ctx
// and stops before starting the next one, and within a shard the trial
// pool stops claiming points and each running simulation aborts at its
// next watchdog-interval probe. Every shard completed before the
// cancellation is already in the checkpoint file, so a later run with
// the same configuration resumes from it and still produces a report
// byte-identical to an uninterrupted campaign. A nil ctx means
// unbounded.
func RunFaultCampaignCtx(ctx context.Context, cfg FaultCampaignConfig) (*fault.Report, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("exp: campaign window must be >= 1, got %d", cfg.Window)
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("exp: campaign needs n >= 1 trials per cell, got %d", cfg.N)
	}
	if cfg.Cluster == 0 {
		cfg.Cluster = cfg.Window / 4
		if cfg.Cluster < 1 {
			cfg.Cluster = 1
		}
	}
	archs := cfg.Archs
	if len(archs) == 0 {
		archs = FaultArchs
	}
	sites := cfg.Sites
	if len(sites) == 0 {
		sites = fault.AllSites()
	}
	wls := cfg.Workloads
	if len(wls) == 0 {
		wls = FaultWorkloads()
	}

	// The shard list in deterministic order; each shard's key feeds
	// pointSeed, so the list's composition — not its order — shapes
	// results.
	var shards []faultShard
	for _, arch := range archs {
		if _, err := ArchConfig(arch, cfg.Window, cfg.Cluster); err != nil {
			return nil, err
		}
		for _, wl := range wls {
			for _, site := range sites {
				shards = append(shards, faultShard{arch: arch, wl: wl, site: site})
			}
		}
	}

	ck, err := OpenCheckpoint(cfg.Checkpoint, fingerprint(cfg, archs, sites, wls))
	if err != nil {
		return nil, err
	}
	defer ck.Close()
	done := ck.Cells()

	rep := &fault.Report{
		Seed: cfg.Seed, N: cfg.N, Window: cfg.Window,
		Detect: cfg.Detect.String(), Shards: len(shards), Resumed: len(done),
	}

	// Telemetry rides on the context: the serve layer roots a trace ID,
	// span recorder and logger there, and each shard reports its own
	// span. All of it is observational — nothing below may feed back into
	// the report, which stays a pure function of cfg.
	trace := obslog.TraceIDFrom(ctx)
	rec := obslog.RecorderFrom(ctx)
	lg := obslog.LoggerFrom(ctx).With("campaign").WithTrace(trace)
	completed := 0
	settle := func() {
		completed++
		if cfg.Progress != nil {
			cfg.Progress(completed, len(shards))
		}
	}
	if cfg.Progress != nil {
		cfg.Progress(0, len(shards))
	}
	lg.Info("campaign start",
		obslog.Int("shards", len(shards)), obslog.Int("resumed", len(done)),
		obslog.Int64("seed", cfg.Seed), obslog.Int("window", cfg.Window))

	// Golden results are arch-independent; clean engine baselines are
	// cached per (arch, workload).
	goldens := make([]*ref.Result, len(wls))
	for wi, wl := range wls {
		g, err := ref.Run(wl.Prog, wl.Mem(), ref.Config{})
		if err != nil {
			return nil, fmt.Errorf("exp: golden run of %s: %w", wl.Name, err)
		}
		goldens[wi] = g
	}
	cleans := map[string]*core.Result{} // key arch+"/"+workload
	wlIndex := func(name string) int {
		for i, w := range wls {
			if w.Name == name {
				return i
			}
		}
		return -1
	}

	for _, sh := range shards {
		if cell, ok := done[sh.key()]; ok {
			rep.Cells = append(rep.Cells, cell)
			settle()
			continue
		}
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("exp: campaign stopped after %d/%d shards: %w",
					len(done), len(shards), cerr)
			}
		}
		ecfg, err := ArchConfig(sh.arch, cfg.Window, cfg.Cluster)
		if err != nil {
			return nil, err
		}
		golden := goldens[wlIndex(sh.wl.Name)]
		cleanKey := sh.arch + "/" + sh.wl.Name
		clean := cleans[cleanKey]
		if clean == nil {
			clean, err = core.RunCtx(ctx, sh.wl.Prog, sh.wl.Mem(), ecfg)
			if err != nil {
				return nil, fmt.Errorf("exp: clean %s run of %s: %w", sh.arch, sh.wl.Name, err)
			}
			cleans[cleanKey] = clean
		}

		sp := rec.Start(trace, "shard", sh.key())
		cell, err := runShard(ctx, sh, cfg, ecfg, clean, golden)
		sp.End()
		if err != nil {
			return nil, err
		}
		rep.Cells = append(rep.Cells, cell)
		cksp := rec.Start(trace, "checkpoint", sh.key())
		err = ck.Record(sh.key(), cell)
		cksp.End()
		if err != nil {
			return nil, err
		}
		settle()
		if lg.Enabled(obslog.LevelDebug) {
			lg.Debug("shard done",
				obslog.String("shard", sh.key()),
				obslog.Int("done", completed), obslog.Int("total", len(shards)))
		}
	}
	rep.SortCells()
	lg.Info("campaign done", obslog.Int("shards", len(shards)))
	return rep, nil
}

// runShard runs one shard's N injection trials, bounded by ctx (nil =
// unbounded). It builds every trial's single-fault plan, screens them
// all with one probe run, classifies the trials whose fault never lands
// as vacuous without running them — such a run is the clean run, so it
// cannot crash, fire the watchdog or squash — and sends only the landed
// trials through the sweep pool.
func runShard(ctx context.Context, sh faultShard, cfg FaultCampaignConfig, ecfg core.Config,
	clean *core.Result, golden *ref.Result) (fault.Cell, error) {
	ecfg = trialConfig(ecfg, cfg.Detect, clean)
	faults := shardFaults(sh, cfg, ecfg, clean)
	landed, err := core.ScreenFaults(ctx, sh.wl.Prog, sh.wl.Mem(), ecfg, faults)
	if err != nil {
		return fault.Cell{}, fmt.Errorf("exp: shard %s: screen: %w", sh.key(), err)
	}
	points := make([]faultPoint, len(faults))
	var live []int
	for i, ok := range landed {
		if ok {
			live = append(live, i)
		} else {
			points[i].out = fault.OutcomeVacuous
		}
	}
	ran, err := parMapCtx(ctx, live, func(i int) (faultPoint, error) {
		res, log, rerr := runTrial(ctx, sh.wl, ecfg, faults[i])
		// A canceled trial is not a crash outcome: it says nothing about
		// the fault's effect, so it must abort the shard rather than be
		// misclassified into the report.
		var ce *core.CanceledError
		if errors.As(rerr, &ce) {
			return faultPoint{}, rerr
		}
		p := faultPoint{watchdog: log.WatchdogFires > 0, squashed: log.SquashedStations}
		stateOK := rerr == nil && stateMatches(res, golden)
		p.out = classify(log, rerr, stateOK)
		if p.out == fault.OutcomeRecovered {
			p.extra = res.Stats.Cycles - clean.Stats.Cycles
		}
		return p, nil
	})
	if err != nil {
		return fault.Cell{}, fmt.Errorf("exp: shard %s: %w", sh.key(), err)
	}
	for k, i := range live {
		points[i] = ran[k]
	}

	cell := fault.Cell{Arch: sh.arch + "/" + sh.wl.Name, Site: sh.site.String(), Points: cfg.N}
	for _, p := range points {
		switch p.out {
		case fault.OutcomeVacuous:
			cell.Vacuous++
		case fault.OutcomeMasked:
			cell.Masked++
		case fault.OutcomeRecovered:
			cell.Detected++
			cell.Recovered++
			cell.ExtraCycles += p.extra
		case fault.OutcomeSDC:
			cell.SDC++
		case fault.OutcomeCrash:
			cell.Crashed++
		case fault.OutcomeRecoveryFailed:
			cell.Detected++
			cell.RecFailed++
		}
		if p.watchdog {
			cell.Watchdog++
		}
		cell.SquashedStations += p.squashed
	}
	return cell, nil
}

// trialConfig is the engine configuration every trial of a shard runs
// under: the architecture's, with the detection model and a generous
// cycle ceiling — a recovered run costs extra cycles, never orders of
// magnitude, so anything beyond it is a genuine runaway (crash).
func trialConfig(ecfg core.Config, detect fault.Detect, clean *core.Result) core.Config {
	ecfg.MaxCycles = clean.Stats.Cycles*64 + 4096
	ecfg.FaultDetect = detect
	return ecfg
}

// shardFaults draws the one fault of each of the shard's N trials.
// Injection cycles fall inside the clean run, and each trial's plan seed
// is a pure function of the campaign seed and the point's identity
// (pointSeed).
func shardFaults(sh faultShard, cfg FaultCampaignConfig, ecfg core.Config, clean *core.Result) []fault.Fault {
	maxCycle := max(clean.Stats.Cycles-1, 1)
	nregs := ecfg.NumRegs
	if nregs == 0 {
		nregs = isa.NumRegs
	}
	faults := make([]fault.Fault, cfg.N)
	for i := range faults {
		faults[i] = fault.NewPlan(pointSeed(cfg.Seed, sh.key(), i), fault.GenParams{
			Window: cfg.Window, NumRegs: nregs, MaxCycle: maxCycle,
			Sites: []fault.Site{sh.site}, N: 1,
		}).Faults[0]
	}
	return faults
}

// runTrial runs one injection trial — fl as the only fault — in full on
// a fresh copy of the workload's memory.
func runTrial(ctx context.Context, wl workload.Workload, ecfg core.Config, fl fault.Fault) (*core.Result, *fault.Log, error) {
	log := &fault.Log{}
	ecfg.FaultPlan, ecfg.FaultLog = &fault.Plan{Faults: []fault.Fault{fl}}, log
	res, err := core.RunCtx(ctx, wl.Prog, wl.Mem(), ecfg)
	return res, log, err
}

// fingerprint binds a checkpoint to everything that shapes shard results.
func fingerprint(cfg FaultCampaignConfig, archs []string, sites []fault.Site, wls []workload.Workload) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d n=%d window=%d cluster=%d detect=%s archs=%s",
		cfg.Seed, cfg.N, cfg.Window, cfg.Cluster, cfg.Detect, strings.Join(archs, ","))
	b.WriteString(" sites=")
	for i, s := range sites {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.String())
	}
	b.WriteString(" workloads=")
	for i, w := range wls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(w.Name)
	}
	return b.String()
}
