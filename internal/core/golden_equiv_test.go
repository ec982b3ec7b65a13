package core

import (
	"fmt"
	"reflect"
	"testing"

	"ultrascalar/internal/fault"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
	"ultrascalar/internal/workload"
)

// The engine forwards through one latch implementation: producers fixed
// at fetch, wakeup links, and a heal sweep in faulted and self-timed
// runs. Its oracle is the seed engine's forwarding, the per-register CSPP
// rescan of the whole window, kept here: scanOracle uses none of the
// production latch's logic (no rename table, no producer distances, no
// wakeup links). These tests run every kernel on all three architectures
// on the one path and under the oracle, and require identical Regs,
// Stats, and Timeline.

// scanOracle is the full rescan. Set as scanForTests, it replaces
// forward's heal sweep and overwrites the latches, producer distances and
// ready bit of every unstarted station. It scans every cycle of a
// fault-free run, so it checks the wakeup links on every cycle, and the
// dirty cycles of a faulted run, where a corrupted latch holds until
// producer state or the window changes. It finds the fetches and
// completions that make a cycle dirty itself (see changed); of the
// engine's dirty flag it needs only the marks fault sites set.
type scanOracle struct {
	vals       []isa.Word
	writer     []int64 // seq of the value's producer, -1 = initial
	writerDone []int64 // cycle the value became visible

	fetched int64   // stats.Fetched at the last call
	doneSeq []int64 // per slot: seq+1 of the occupant last seen done, 0 = none
}

// changed reports whether the window or producer state changed since the
// oracle's last call, read from engine state rather than the engine's
// dirty flag: an instruction was fetched, or a live station's occupant
// completed.
func (o *scanOracle) changed(e *engine) bool {
	st := &e.st
	if len(o.doneSeq) != len(st.seq) {
		o.doneSeq = make([]int64, len(st.seq))
	}
	ch := e.stats.Fetched != o.fetched
	o.fetched = e.stats.Fetched
	for i := 0; i < e.occ; i++ {
		slot := e.slotAt(i)
		if st.done.get(slot) && o.doneSeq[slot] != st.seq[slot]+1 {
			o.doneSeq[slot] = st.seq[slot] + 1
			ch = true
		}
	}
	return ch
}

func (o *scanOracle) scan(e *engine, dirty bool) error {
	if !o.changed(e) && !dirty && e.flt != nil {
		return nil
	}
	st := &e.st
	n := e.cfg.NumRegs
	fl := e.cfg.ForwardLatency
	o.vals = append(o.vals[:0], e.commit...)
	o.writer = append(o.writer[:0], e.commitProducer...)
	o.writerDone = append(o.writerDone[:0], e.commitDoneAt...)
	avail := ^uint64(0) // one bit per register
	for i := 0; i < e.occ; i++ {
		slot := e.slotAt(i)
		if !st.started.get(slot) {
			ready := true
			for k := 0; k < int(st.nsrc[slot]); k++ {
				r := e.operandReg(slot, k)
				if int(r) >= n {
					return fmt.Errorf("core: %s reads r%d but machine has %d registers", st.inst[slot], r, n)
				}
				ok := avail>>r&1 != 0
				d := int32(-1)
				if o.writer[r] >= 0 {
					d = int32(st.seq[slot] - o.writer[r])
					if ok && fl != nil && e.cycle < o.writerDone[r]+int64(fl(int(d))) {
						ok = false
					}
				}
				ready = ready && ok
				e.setOperand(slot, k, o.vals[r])
				st.srcD[k][slot] = d
			}
			st.ready.put(slot, ready)
		}
		if st.writes.get(slot) {
			d := st.dest[slot]
			if int(d) >= n {
				return fmt.Errorf("core: %s writes r%d but machine has %d registers", st.inst[slot], d, n)
			}
			o.vals[d] = st.result[slot]
			avail &^= 1 << d
			if st.done.get(slot) {
				avail |= 1 << d
			}
			o.writer[d] = st.seq[slot]
			o.writerDone[d] = st.doneAt[slot]
		}
	}
	return nil
}

// withScanOracle runs f with the oracle in place of the heal sweep.
func withScanOracle(f func()) {
	scanForTests = (&scanOracle{}).scan
	defer func() { scanForTests = nil }()
	f()
}

// runBothScanModes runs cfg on w on the one path and under the oracle and
// returns both results.
func runBothScanModes(t *testing.T, w workload.Workload, cfg Config) (fast, full *Result) {
	t.Helper()
	cfg.KeepTimeline = true
	fast, err := Run(w.Prog, w.Mem(), cfg)
	if err != nil {
		t.Fatalf("%s: one-path run: %v", w.Name, err)
	}
	withScanOracle(func() { full, err = Run(w.Prog, w.Mem(), cfg) })
	if err != nil {
		t.Fatalf("%s: oracle run: %v", w.Name, err)
	}
	return fast, full
}

// requireIdentical asserts the two runs are bit-identical in every
// observable output.
func requireIdentical(t *testing.T, name string, fast, full *Result) {
	t.Helper()
	if !reflect.DeepEqual(fast.Regs, full.Regs) {
		t.Errorf("%s: Regs diverge:\n fast %v\n full %v", name, fast.Regs, full.Regs)
	}
	if !reflect.DeepEqual(fast.Stats, full.Stats) {
		t.Errorf("%s: Stats diverge:\n fast %+v\n full %+v", name, fast.Stats, full.Stats)
	}
	if !reflect.DeepEqual(fast.Timeline, full.Timeline) {
		t.Errorf("%s: Timeline diverges (%d vs %d records)",
			name, len(fast.Timeline), len(full.Timeline))
	}
	if !fast.Mem.Equal(full.Mem) {
		t.Errorf("%s: memory diverges: %s", name, fast.Mem.Diff(full.Mem))
	}
}

// archConfigs returns the three architectures' engine configurations at
// window n (hybrid clusters of c).
func archConfigs(n, c int) map[string]Config {
	return map[string]Config{
		"ultra1": {Window: n, Granularity: 1},
		"hybrid": {Window: n, Granularity: c},
		"ultra2": {Window: n, Granularity: n},
	}
}

func TestIncrementalForwardingMatchesFullScan(t *testing.T) {
	kernels := append(workload.Kernels(), workload.ExtendedKernels()...)
	for arch, cfg := range archConfigs(16, 4) {
		for _, w := range kernels {
			fast, full := runBothScanModes(t, w, cfg)
			requireIdentical(t, arch+"/"+w.Name, fast, full)
		}
	}
}

func TestIncrementalForwardingMatchesFullScanWideWindow(t *testing.T) {
	for arch, cfg := range archConfigs(64, 16) {
		for _, w := range workload.Kernels() {
			fast, full := runBothScanModes(t, w, cfg)
			requireIdentical(t, arch+"/"+w.Name, fast, full)
		}
	}
}

// Self-timed configurations (ForwardLatency) gate operand availability on
// the cycle number, so the engine runs its heal sweep every cycle; it must
// match the oracle's every-cycle rescan.
func TestIncrementalForwardingSelfTimed(t *testing.T) {
	log2 := func(d int) int {
		if d <= 1 {
			return 0
		}
		extra := 0
		for 1<<extra < d {
			extra++
		}
		return extra
	}
	for arch, cfg := range archConfigs(16, 4) {
		cfg.ForwardLatency = log2
		for _, w := range workload.Kernels() {
			fast, full := runBothScanModes(t, w, cfg)
			requireIdentical(t, arch+"/selftimed/"+w.Name, fast, full)
		}
	}
}

// The one path must also hold under the extension features that touch
// forwarding state from unusual places: memory renaming (store-to-load
// hits complete loads inside memoryPhase), shared ALUs (ready stations
// stall without producer-state changes), the fat-tree memory system
// (variable completion times), and block/trace fetch.
func TestIncrementalForwardingExtensions(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"renaming", Config{Window: 16, Granularity: 1, MemRenaming: true}},
		{"shared-alus", Config{Window: 32, Granularity: 1, NumALUs: 2}},
		{"block-fetch", Config{Window: 16, Granularity: 1, Fetch: FetchBlock}},
		{"trace-fetch", Config{Window: 16, Granularity: 1, Fetch: FetchTrace}},
		{"ras", Config{Window: 16, Granularity: 1, ReturnStack: 8}},
	}
	for _, tc := range cases {
		for _, w := range workload.Kernels() {
			fast, full := runBothScanModes(t, w, tc.cfg)
			requireIdentical(t, tc.name+"/"+w.Name, fast, full)
		}
	}
}

func TestIncrementalForwardingMemSystem(t *testing.T) {
	mk := func() Config {
		cfg := memory.DefaultConfig(16, memory.MConst(2))
		return Config{Window: 16, Granularity: 1, MemSystem: memory.NewSystem(cfg)}
	}
	for _, w := range workload.Kernels() {
		// Fresh memory systems per run: the system accumulates stats.
		cfgFast := mk()
		cfgFast.KeepTimeline = true
		fast, err := Run(w.Prog, w.Mem(), cfgFast)
		if err != nil {
			t.Fatalf("%s: one-path run: %v", w.Name, err)
		}
		cfgFull := mk()
		cfgFull.KeepTimeline = true
		var full *Result
		withScanOracle(func() { full, err = Run(w.Prog, w.Mem(), cfgFull) })
		if err != nil {
			t.Fatalf("%s: oracle run: %v", w.Name, err)
		}
		requireIdentical(t, "memsys/"+w.Name, fast, full)
	}
}

// runTrialBoth runs w under cfg with fl as the only fault, on the one
// path and under the oracle, fails t unless the two runs agree on the
// error, the whole fault log, Regs, Stats and memory, and returns the
// one-path run.
func runTrialBoth(t *testing.T, where string, w workload.Workload, cfg Config, fl fault.Fault) (*Result, *fault.Log, error) {
	t.Helper()
	run := func() (*Result, *fault.Log, error) {
		log := &fault.Log{}
		cfg.FaultPlan, cfg.FaultLog = &fault.Plan{Faults: []fault.Fault{fl}}, log
		res, err := Run(w.Prog, w.Mem(), cfg)
		return res, log, err
	}
	one, oneLog, oneErr := run()
	var orc *Result
	var orcLog *fault.Log
	var orcErr error
	withScanOracle(func() { orc, orcLog, orcErr = run() })
	switch {
	case fmt.Sprint(oneErr) != fmt.Sprint(orcErr):
		t.Fatalf("%s %+v: error %v, oracle %v", where, fl, oneErr, orcErr)
	case !reflect.DeepEqual(oneLog, orcLog):
		t.Fatalf("%s %+v: fault log\n %+v\noracle\n %+v", where, fl, oneLog, orcLog)
	case oneErr != nil:
	case !reflect.DeepEqual(one.Regs, orc.Regs):
		t.Fatalf("%s %+v: Regs %v, oracle %v", where, fl, one.Regs, orc.Regs)
	case !reflect.DeepEqual(one.Stats, orc.Stats):
		t.Fatalf("%s %+v: Stats\n %+v\noracle\n %+v", where, fl, one.Stats, orc.Stats)
	case !one.Mem.Equal(orc.Mem):
		t.Fatalf("%s %+v: memory diverges: %s", where, fl, one.Mem.Diff(orc.Mem))
	}
	return one, oneLog, oneErr
}

// TestFaultTrialsMatchScanOracle holds faulted runs, heal sweep included,
// to the oracle: single-fault trials drawn as a campaign draws them (plus
// long stuck-at-0 holds, which campaigns rarely draw), over
// seeds × detection models × windows, the three machine shapes, the
// campaign kernels and every fault site, must agree with the oracle run
// on everything a campaign report reads — outcome, fault log, watchdog
// count, Regs and Stats.
func TestFaultTrialsMatchScanOracle(t *testing.T) {
	// LoadBurst's loads wait, ready, for memory across cycles on which
	// only fetch changes the window: the cycles that tell a heal sweep
	// gated on fetch from one gated on completions alone.
	kernels := []workload.Workload{workload.Fib(10), workload.VecSum(16), workload.GCD(1071, 462), workload.LoadBurst(16, 8)}
	const trials = 3
	landed := make(map[fault.Site]int)
	detected, watchdog := 0, 0
	for _, seed := range []int64{1, 2, 7} {
		for _, detect := range []fault.Detect{fault.DetectNone, fault.DetectParity, fault.DetectGolden} {
			for _, window := range []int{8, 16, 32} {
				for arch, g := range faultArchs(window) {
					cfg := Config{Window: window, Granularity: g}
					for _, w := range kernels {
						clean, err := Run(w.Prog, w.Mem(), cfg)
						if err != nil {
							t.Fatal(err)
						}
						tcfg := cfg
						tcfg.MaxCycles = clean.Stats.Cycles*64 + 4096
						tcfg.FaultDetect = detect
						for _, site := range fault.AllSites() {
							for i := 0; i < trials; i++ {
								fl := fault.NewPlan(seed<<32|int64(window)<<16|int64(site)<<8|int64(i), fault.GenParams{
									Window: window, NumRegs: isa.NumRegs, MaxCycle: max(clean.Stats.Cycles-1, 1),
									Sites: []fault.Site{site}, N: 1,
									// Odd trials draw stuck-at-0 holds of up to 1024
									// cycles, long enough to starve retirement and
									// fire the watchdog.
									StuckDur: int64(i%2) * 1024,
								}).Faults[0]
								where := fmt.Sprintf("seed %d %s window %d %s/%s", seed, detect, window, arch, w.Name)
								_, log, _ := runTrialBoth(t, where, w, tcfg, fl)
								if log.Applied > 0 {
									landed[site]++
								}
								detected += log.Detected
								watchdog += log.WatchdogFires
							}
						}
					}
				}
			}
		}
	}
	for _, site := range fault.AllSites() {
		if landed[site] == 0 {
			t.Errorf("no %s trial landed; the grid does not exercise that site", site)
		}
	}
	if detected == 0 || watchdog == 0 {
		t.Errorf("the grid saw %d detections and %d watchdog fires; it must exercise both recoveries", detected, watchdog)
	}
}
