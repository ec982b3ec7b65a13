package ultra2

import (
	"testing"

	"ultrascalar/internal/core"
	"ultrascalar/internal/exp"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/memory"
	"ultrascalar/internal/ref"
	"ultrascalar/internal/vlsi"
	"ultrascalar/internal/workload"
)

// config returns exp.ArchConfig's Ultrascalar II configuration at window n.
func config(t testing.TB, n int) core.Config {
	t.Helper()
	cfg, err := exp.ArchConfig("ultra2", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRunMatchesGolden(t *testing.T) {
	w := workload.GCD(1071, 462)
	want, err := ref.Run(w.Prog, w.Mem(), ref.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Run(w.Prog, w.Mem(), config(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	if got.Regs[1] != want.Regs[1] {
		t.Errorf("r1 = %d, want %d", got.Regs[1], want.Regs[1])
	}
}

func TestBatchSlowerThanRing(t *testing.T) {
	// Section 4: the Ultrascalar II "is less efficient than the
	// Ultrascalar I because its datapath does not wrap around."
	w := workload.DotProduct(40)
	u2, err := core.Run(w.Prog, w.Mem(), config(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := exp.ArchConfig("ultra1", 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	u1, err := core.Run(w.Prog, w.Mem(), ring)
	if err != nil {
		t.Fatal(err)
	}
	if u2.Stats.Cycles <= u1.Stats.Cycles {
		t.Errorf("UltraII %d cycles should exceed UltraI %d", u2.Stats.Cycles, u1.Stats.Cycles)
	}
}

// TestEngineConfig: the Ultrascalar II refills the whole batch whatever
// cluster size is passed.
func TestEngineConfig(t *testing.T) {
	cfg, err := exp.ArchConfig("ultra2", 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Window != 32 || cfg.Granularity != 32 {
		t.Errorf("config %+v, want window 32 granularity 32", cfg)
	}
}

func TestModelModes(t *testing.T) {
	for _, mode := range []vlsi.Ultra2Mode{vlsi.Ultra2Linear, vlsi.Ultra2Tree, vlsi.Ultra2Mixed} {
		md, err := vlsi.Ultra2Model(32, 32, 32, memory.MConst(1), vlsi.Tech035(), mode)
		if err != nil {
			t.Fatal(err)
		}
		if md.GateDelay <= 0 || md.AreaL2() <= 0 {
			t.Errorf("mode %v: bad model", mode)
		}
	}
}

// TestFaultRecovery: faults injected under batch refill (g=n, the
// Ultrascalar II's whole-window reuse — recovery replays into partially
// drained groups) are detected by the golden checker and repaired, so
// the architectural result still matches the reference run.
func TestFaultRecovery(t *testing.T) {
	w := workload.Fib(12)
	want, err := ref.Run(w.Prog, w.Mem(), ref.Config{})
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for seed := int64(1); seed <= 20; seed++ {
		plan := fault.NewPlan(seed, fault.GenParams{
			Window: 16, NumRegs: 32, MaxCycle: 150, N: 3,
		})
		var log fault.Log
		cfg := config(t, 16)
		cfg.FaultPlan, cfg.FaultDetect, cfg.FaultLog = plan, fault.DetectGolden, &log
		got, err := core.Run(w.Prog, w.Mem(), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for r := range want.Regs {
			if got.Regs[r] != want.Regs[r] {
				t.Fatalf("seed %d: r%d = %d, want %d", seed, r, got.Regs[r], want.Regs[r])
			}
		}
		if !got.Mem.Equal(want.Mem) {
			t.Fatalf("seed %d: memory diverged from golden", seed)
		}
		if log.Detected != log.Recovered {
			t.Fatalf("seed %d: detected %d, recovered %d", seed, log.Detected, log.Recovered)
		}
		detected += log.Detected
	}
	if detected == 0 {
		t.Error("no fault was ever detected; injection is not reaching live state")
	}
}
