package core

import (
	"errors"
	"math/rand"
	"testing"

	"ultrascalar/internal/fault"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
	"ultrascalar/internal/ref"
	"ultrascalar/internal/workload"
)

// faultArchs returns the three processor shapes (granularity choices) a
// window supports: Ultrascalar I, Ultrascalar II, hybrid.
func faultArchs(w int) map[string]int {
	c := w / 4
	if c < 1 {
		c = 1
	}
	return map[string]int{"ultra1": 1, "ultra2": w, "hybrid": c}
}

// TestFaultRecoveryGolden is the tentpole acceptance check: random
// programs with random fault plans under the golden commit checker, over
// all three architectures. Every detected fault must be recovered — the
// final registers, memory and retired-instruction count must equal the
// fault-free golden run, always.
func TestFaultRecoveryGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	detections := 0
	for trial := 0; trial < trials; trial++ {
		nregs := 8
		prog := randomProgram(rng, 40+rng.Intn(120), nregs)
		seedMem := memory.NewFlat()
		for i := 0; i < 16; i++ {
			seedMem.Store(isa.Word(rng.Intn(64)), isa.Word(rng.Uint32()))
		}
		want, err := ref.Run(prog, seedMem.Clone(), ref.Config{NumRegs: nregs})
		if err != nil {
			t.Fatalf("trial %d: golden failed: %v", trial, err)
		}
		for arch, g := range faultArchs(8) {
			cfg := Config{Window: 8, Granularity: g, NumRegs: nregs,
				MemRenaming: trial%2 == 0, MaxCycles: 1 << 20}
			clean, err := Run(prog, seedMem.Clone(), cfg)
			if err != nil {
				t.Fatalf("trial %d %s: clean run failed: %v", trial, arch, err)
			}
			plan := fault.NewPlan(int64(trial*31+g), fault.GenParams{
				Window: 8, NumRegs: nregs, MaxCycle: clean.Stats.Cycles, N: 4,
			})
			log := &fault.Log{}
			cfg.FaultPlan, cfg.FaultDetect, cfg.FaultLog = plan, fault.DetectGolden, log
			got, err := Run(prog, seedMem.Clone(), cfg)
			if err != nil {
				t.Fatalf("trial %d %s: faulted run failed: %v\nplan:\n%s\nlog: %+v",
					trial, arch, err, plan.Encode(), log)
			}
			detections += log.Detected
			for r := 0; r < nregs; r++ {
				if got.Regs[r] != want.Regs[r] {
					t.Fatalf("trial %d %s: r%d = %d, golden %d (detected=%d recovered=%d)\nplan:\n%s",
						trial, arch, r, got.Regs[r], want.Regs[r],
						log.Detected, log.Recovered, plan.Encode())
				}
			}
			if !got.Mem.Equal(want.Mem) {
				t.Fatalf("trial %d %s: memory mismatch: %s\nplan:\n%s",
					trial, arch, got.Mem.Diff(want.Mem), plan.Encode())
			}
			if got.Stats.Retired != int64(want.Executed) {
				t.Fatalf("trial %d %s: retired %d, golden executed %d\nplan:\n%s",
					trial, arch, got.Stats.Retired, want.Executed, plan.Encode())
			}
			if log.Detected != log.Recovered {
				t.Fatalf("trial %d %s: %d detections but %d recoveries",
					trial, arch, log.Detected, log.Recovered)
			}
		}
	}
	// The campaign must actually exercise the recovery path, not pass
	// vacuously: across 60 trials x 3 archs x 4 faults, detections happen.
	if detections == 0 {
		t.Fatal("no fault was ever detected across all trials; injection is not landing")
	}
}

// TestFaultParityCatchesResultBit checks the parity model: result-bit
// flips (odd-weight corruption of a latched value) are detected at the
// commit port and recovered; the final state matches the fault-free run.
func TestFaultParityCatchesResultBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nregs := 8
	detections := 0
	for trial := 0; trial < 40; trial++ {
		prog := randomProgram(rng, 60, nregs)
		want, err := ref.Run(prog, memory.NewFlat(), ref.Config{NumRegs: nregs})
		if err != nil {
			t.Fatalf("trial %d: golden failed: %v", trial, err)
		}
		cfg := Config{Window: 8, NumRegs: nregs, MaxCycles: 1 << 20}
		clean, err := Run(prog, memory.NewFlat(), cfg)
		if err != nil {
			t.Fatalf("trial %d: clean run failed: %v", trial, err)
		}
		plan := fault.NewPlan(int64(trial), fault.GenParams{
			Window: 8, NumRegs: nregs, MaxCycle: clean.Stats.Cycles,
			Sites: []fault.Site{fault.SiteResultBit}, N: 3,
		})
		log := &fault.Log{}
		cfg.FaultPlan, cfg.FaultDetect, cfg.FaultLog = plan, fault.DetectParity, log
		got, err := Run(prog, memory.NewFlat(), cfg)
		if err != nil {
			t.Fatalf("trial %d: faulted run failed: %v\nplan:\n%s", trial, err, plan.Encode())
		}
		detections += log.Detected
		// Parity catches every corrupted result before it commits, so the
		// final state is always golden.
		for r := 0; r < nregs; r++ {
			if got.Regs[r] != want.Regs[r] {
				t.Fatalf("trial %d: r%d = %d, golden %d under parity\nplan:\n%s",
					trial, r, got.Regs[r], want.Regs[r], plan.Encode())
			}
		}
		if !got.Mem.Equal(want.Mem) {
			t.Fatalf("trial %d: memory mismatch under parity: %s", trial, got.Mem.Diff(want.Mem))
		}
	}
	if detections == 0 {
		t.Fatal("parity never detected a result-bit flip across 40 trials")
	}
}

// TestFaultInjectionDeterministic runs the identical faulted
// configuration twice and demands identical cycle counts, stats and
// fault logs — the campaign reproducibility contract.
func TestFaultInjectionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prog := randomProgram(rng, 100, 8)
	run := func() (*Result, *fault.Log) {
		plan := fault.NewPlan(99, fault.GenParams{Window: 16, NumRegs: 8, MaxCycle: 200, N: 8})
		log := &fault.Log{}
		cfg := Config{Window: 16, Granularity: 4, NumRegs: 8, MaxCycles: 1 << 20,
			FaultPlan: plan, FaultDetect: fault.DetectGolden, FaultLog: log}
		res, err := Run(prog, memory.NewFlat(), cfg)
		if err != nil {
			t.Fatalf("faulted run failed: %v", err)
		}
		return res, log
	}
	a, la := run()
	b, lb := run()
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Squashed != b.Stats.Squashed {
		t.Fatalf("faulted runs diverged: cycles %d vs %d, squashed %d vs %d",
			a.Stats.Cycles, b.Stats.Cycles, a.Stats.Squashed, b.Stats.Squashed)
	}
	if la.Applied != lb.Applied || la.Detected != lb.Detected ||
		la.Recovered != lb.Recovered || len(la.Records) != len(lb.Records) {
		t.Fatalf("fault logs diverged: %+v vs %+v", la, lb)
	}
}

// TestFaultPlanBeyondRunIsVacuous checks a plan scheduled entirely after
// the run ends changes nothing: same cycles, same state, zero applied.
func TestFaultPlanBeyondRunIsVacuous(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prog := randomProgram(rng, 80, 8)
	cfg := Config{Window: 8, NumRegs: 8, MaxCycles: 1 << 20}
	clean, err := Run(prog, memory.NewFlat(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &fault.Log{}
	cfg.FaultPlan = &fault.Plan{Seed: 1, Faults: []fault.Fault{
		{Site: fault.SiteResultBit, Cycle: clean.Stats.Cycles + 100, Bit: 3},
	}}
	cfg.FaultDetect, cfg.FaultLog = fault.DetectGolden, log
	got, err := Run(prog, memory.NewFlat(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Cycles != clean.Stats.Cycles {
		t.Fatalf("vacuous plan changed cycles: %d vs %d", got.Stats.Cycles, clean.Stats.Cycles)
	}
	if log.Applied != 0 || log.Detected != 0 {
		t.Fatalf("vacuous plan logged activity: %+v", log)
	}
}

// TestLivelockWatchdog starves a dependence chain with an infinite
// forwarding latency — instruction 1 onward can never receive operands —
// and demands the watchdog report a livelock with a faithful snapshot
// instead of spinning to MaxCycles.
func TestLivelockWatchdog(t *testing.T) {
	prog := []isa.Inst{{Op: isa.OpLi, Rd: 1, Imm: 1}}
	for i := 0; i < 20; i++ {
		prog = append(prog, isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 1})
	}
	prog = append(prog, isa.Inst{Op: isa.OpHalt})
	cfg := Config{Window: 8, NumRegs: 4, MaxCycles: 1 << 20,
		ForwardLatency: func(d int) int { return 1 << 30 }}
	_, err := Run(prog, memory.NewFlat(), cfg)
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("got %v, want ErrLivelock", err)
	}
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("error %v does not carry a LivelockError snapshot", err)
	}
	if le.HeadPC != 1 {
		t.Errorf("head pc %d, want 1 (the first starved add)", le.HeadPC)
	}
	if le.Occupied != 8 || le.Window != 8 {
		t.Errorf("occupancy %d/%d, want a full 8/8 ring", le.Occupied, le.Window)
	}
	if le.Started != 0 || le.Ready != 0 {
		t.Errorf("snapshot claims progress (started=%d ready=%d) in a dead window",
			le.Started, le.Ready)
	}
	// The default threshold for window 8 is max(4*8, 64) = 64 quiet cycles.
	if le.Cycle-le.LastRetire <= 64 {
		t.Errorf("watchdog fired after only %d quiet cycles", le.Cycle-le.LastRetire)
	}
}

// TestWatchdogDisabled checks a negative Watchdog turns the livelock
// detector off: the same dead program spins to MaxCycles (ErrNoHalt).
func TestWatchdogDisabled(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.OpLi, Rd: 1, Imm: 1},
		{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 1},
		{Op: isa.OpHalt},
	}
	cfg := Config{Window: 4, NumRegs: 4, MaxCycles: 2000, Watchdog: -1,
		ForwardLatency: func(d int) int { return 1 << 30 }}
	_, err := Run(prog, memory.NewFlat(), cfg)
	if !errors.Is(err, ErrNoHalt) {
		t.Fatalf("got %v, want ErrNoHalt with the watchdog disabled", err)
	}
}

// TestWatchdogRecoversStuckLivelock pins a station's ready latch low for
// longer than the watchdog window. The starved ring must be recovered by
// watchdog-triggered squash-and-replay, and the run must still finish
// with the exact golden state.
func TestWatchdogRecoversStuckLivelock(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nregs := 8
	prog := randomProgram(rng, 150, nregs)
	want, err := ref.Run(prog, memory.NewFlat(), ref.Config{NumRegs: nregs})
	if err != nil {
		t.Fatal(err)
	}
	log := &fault.Log{}
	cfg := Config{Window: 8, NumRegs: nregs, MaxCycles: 1 << 20,
		FaultPlan: &fault.Plan{Seed: 1, Faults: []fault.Fault{
			{Site: fault.SiteReadyStuck0, Cycle: 10, Slot: 0, Dur: 1 << 19},
		}},
		FaultDetect: fault.DetectGolden, FaultLog: log}
	got, err := Run(prog, memory.NewFlat(), cfg)
	if err != nil {
		t.Fatalf("stuck-at-0 run failed instead of recovering: %v (log %+v)", err, log)
	}
	if log.Applied == 0 {
		t.Fatal("the stuck-at-0 hold never pinned a station; test is vacuous")
	}
	if log.WatchdogFires == 0 {
		t.Fatalf("run completed without the watchdog firing; log %+v", log)
	}
	for r := 0; r < nregs; r++ {
		if got.Regs[r] != want.Regs[r] {
			t.Fatalf("r%d = %d, golden %d after watchdog recovery", r, got.Regs[r], want.Regs[r])
		}
	}
	if !got.Mem.Equal(want.Mem) {
		t.Fatalf("memory mismatch after watchdog recovery: %s", got.Mem.Diff(want.Mem))
	}
}

// TestFaultDetectRequiresPlan checks normalize rejects a detection mode
// with no plan to detect.
func TestFaultDetectRequiresPlan(t *testing.T) {
	cfg := Config{Window: 4, FaultDetect: fault.DetectGolden}
	if err := cfg.normalize(); err == nil {
		t.Fatal("normalize accepted FaultDetect without a FaultPlan")
	}
}

// FuzzScreenFault checks ScreenFaults against the engine on one random
// single fault × kernel × window × machine shape: a fault the screen
// rejects must leave the faulted run equal to the clean run (nothing
// applied, no watchdog fire, no squash, no error, the same cycle,
// retired and fetched counts), and a fault it accepts must land. The
// faulted run must also equal its run under the scan oracle: the same
// Regs, Stats, fault log and error.
func FuzzScreenFault(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint8(0), uint8(fault.SiteResultBit), int64(20), int32(3), uint8(5), uint8(0), uint8(2), int64(4), uint8(2))
	f.Add(uint8(1), uint8(16), uint8(2), uint8(fault.SiteReadyStuck0), int64(7), int32(9), uint8(0), uint8(1), uint8(0), int64(60), uint8(0))
	f.Add(uint8(2), uint8(4), uint8(1), uint8(fault.SiteMergeBit), int64(3), int32(0), uint8(31), uint8(1), uint8(4), int64(1), uint8(1))
	kernels := []workload.Workload{
		workload.Fib(8), workload.VecSum(8), workload.GCD(1071, 462),
		workload.BubbleSort(5), workload.Collatz(7), workload.MemCopy(8),
	}
	nsites := len(fault.AllSites())
	f.Fuzz(func(t *testing.T, k, window, shape, site uint8, cycle int64, slot int32,
		bit, op, reg uint8, dur int64, detect uint8) {
		wl := kernels[int(k)%len(kernels)]
		w := 1 << (int(window) % 6) // 1..32: every shape's granularity divides it
		g := []int{1, w, max(w/4, 1)}[int(shape)%3]
		cfg := Config{Window: w, Granularity: g}
		clean, err := Run(wl.Prog, wl.Mem(), cfg)
		if err != nil {
			t.Fatalf("clean run: %v", err)
		}
		cfg.MaxCycles = clean.Stats.Cycles*64 + 4096
		cfg.FaultDetect = fault.Detect(int(detect) % 3)
		if cycle < 0 {
			cycle = -cycle
		}
		fl := fault.Fault{
			Site: fault.Site(int(site) % nsites), Cycle: cycle % (clean.Stats.Cycles + 8),
			Slot: slot & 0xffff, Bit: bit, Op: op % 2, Reg: reg, Dur: dur % 256,
		}
		landed, err := ScreenFaults(nil, wl.Prog, wl.Mem(), cfg, []fault.Fault{fl})
		if err != nil {
			t.Fatalf("screen: %v", err)
		}
		res, log, err := runTrialBoth(t, wl.Name, wl, cfg, fl)
		if landed[0] {
			if log.Applied < 1 {
				t.Fatalf("screen kept %+v but it never landed", fl)
			}
			return
		}
		switch {
		case err != nil:
			t.Fatalf("screen rejected %+v but the run failed: %v", fl, err)
		case log.Applied != 0 || log.WatchdogFires != 0 || log.SquashedStations != 0:
			t.Fatalf("screen rejected %+v but the run logged %+v", fl, log)
		case res.Stats.Cycles != clean.Stats.Cycles || res.Stats.Retired != clean.Stats.Retired ||
			res.Stats.Fetched != clean.Stats.Fetched:
			t.Fatalf("screen rejected %+v but the run differs from the clean run: %+v vs %+v",
				fl, res.Stats, clean.Stats)
		}
	})
}

// TestResultBitReachesLatchedConsumer: a result-bit strike re-drives the
// corrupted value onto the CSPP wires, so a consumer that latched the
// clean value but has not issued relatches the corrupt one at the next
// heal sweep, while the struck producer is still in the window. Here the
// add latches r5 = 9 in cycle 1 and waits for the mul until cycle 4; the
// strike turns r5 into 8 at cycle 2, and the div keeps the li from
// retiring until long after the add issues. With no detection, r5 = 8
// and r4 = r5 + 30 commit from the corrupt value.
func TestResultBitReachesLatchedConsumer(t *testing.T) {
	w := workload.Workload{Name: "latched", Prog: []isa.Inst{
		{Op: isa.OpLi, Rd: 1, Imm: 5},
		{Op: isa.OpLi, Rd: 2, Imm: 6},
		{Op: isa.OpDiv, Rd: 6, Rs1: 1, Rs2: 2}, // holds retirement until cycle 11
		{Op: isa.OpLi, Rd: 5, Imm: 9},          // slot 3: the struck result
		{Op: isa.OpMul, Rd: 3, Rs1: 1, Rs2: 2}, // r3 = 30, visible at cycle 4
		{Op: isa.OpAdd, Rd: 4, Rs1: 5, Rs2: 3}, // latches r5, waits on r3
		{Op: isa.OpHalt},
	}}
	cfg := Config{Window: 8, MaxCycles: 1 << 10, FaultDetect: fault.DetectNone}
	fl := fault.Fault{Site: fault.SiteResultBit, Cycle: 2, Slot: 3, Bit: 0}
	res, log, err := runTrialBoth(t, "latched", w, cfg, fl)
	if err != nil {
		t.Fatal(err)
	}
	if log.Applied != 1 {
		t.Fatalf("the strike did not land: %+v", log)
	}
	if res.Regs[5] != 8 || res.Regs[4] != 38 {
		t.Errorf("r5 = %d, r4 = %d; want the corrupt 8 and 38", res.Regs[5], res.Regs[4])
	}
}

// TestWatchdogWaitsOutFetch pins when the watchdog may fire. A stuck-at-0
// hold starves the head from cycle 0 while FetchWidth 1 fills a 4-slot
// window one station per cycle with instructions that wait on the head;
// the last one arrives with the fetch at the end of cycle 2. A fetch
// marks the cycle dirty, and a dirty cycle is progress still pending (the
// heal sweep of the next forward may change readiness), so the watchdog,
// armed after one quiet cycle, first finds the window dead at cycle 4,
// not 3.
func TestWatchdogWaitsOutFetch(t *testing.T) {
	w := workload.Workload{Name: "starved", Prog: []isa.Inst{
		{Op: isa.OpLi, Rd: 1, Imm: 1},
		{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 1},
		{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 1},
		{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 1},
		{Op: isa.OpHalt},
	}}
	cfg := Config{Window: 4, FetchWidth: 1, Watchdog: 1, MaxCycles: 1 << 10, FaultDetect: fault.DetectGolden}
	fl := fault.Fault{Site: fault.SiteReadyStuck0, Cycle: 0, Slot: 0, Dur: 1 << 9}
	res, log, err := runTrialBoth(t, "starved", w, cfg, fl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[1] != 8 {
		t.Errorf("r1 = %d after recovery, want 8", res.Regs[1])
	}
	var fires []int64
	for _, r := range log.Records {
		if r.Kind == fault.RecWatchdog {
			fires = append(fires, r.Cycle)
		}
	}
	if len(fires) != 1 || fires[0] != 4 {
		t.Errorf("watchdog fired at cycles %v, want once at cycle 4", fires)
	}
}
