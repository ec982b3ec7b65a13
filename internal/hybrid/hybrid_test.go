package hybrid

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

// archConfig returns exp.ArchConfig's configuration of arch at window n
// (hybrid clusters of c).
func archConfig(t testing.TB, arch string, n, c int) core.Config {
	t.Helper()
	cfg, err := exp.ArchConfig(arch, n, c)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRunMatchesGolden(t *testing.T) {
	w := workload.VecSum(30)
	want, err := ref.Run(w.Prog, w.Mem(), ref.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Run(w.Prog, w.Mem(), archConfig(t, "hybrid", 16, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got.Regs[3] != want.Regs[3] {
		t.Errorf("r3 = %d, want %d", got.Regs[3], want.Regs[3])
	}
}

func TestBetweenTheTwo(t *testing.T) {
	// Cluster-grained refill costs at most what batch refill costs and at
	// least what per-station refill costs.
	w := workload.DotProduct(40)
	u1, err := core.Run(w.Prog, w.Mem(), archConfig(t, "ultra1", 16, 0))
	if err != nil {
		t.Fatal(err)
	}
	hy, err := core.Run(w.Prog, w.Mem(), archConfig(t, "hybrid", 16, 4))
	if err != nil {
		t.Fatal(err)
	}
	u2, err := core.Run(w.Prog, w.Mem(), archConfig(t, "ultra2", 16, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !(u1.Stats.Cycles <= hy.Stats.Cycles && hy.Stats.Cycles <= u2.Stats.Cycles) {
		t.Errorf("cycles should order %d <= %d <= %d", u1.Stats.Cycles, hy.Stats.Cycles, u2.Stats.Cycles)
	}
}

func TestClusterOneIsUltraI(t *testing.T) {
	// A hybrid with C=1 is exactly an Ultrascalar I.
	w := workload.MixedILP(200, 16, 8, 5)
	a, err := core.Run(w.Prog, w.Mem(), archConfig(t, "hybrid", 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(w.Prog, w.Mem(), archConfig(t, "ultra1", 16, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Retired != b.Stats.Retired {
		t.Errorf("hybrid C=1 (%+v cycles) != UltraI (%+v cycles)", a.Stats.Cycles, b.Stats.Cycles)
	}
}

func TestClusterNIsUltraII(t *testing.T) {
	// A hybrid with C=n is exactly an Ultrascalar II.
	w := workload.MixedILP(200, 16, 8, 6)
	a, err := core.Run(w.Prog, w.Mem(), archConfig(t, "hybrid", 16, 16))
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(w.Prog, w.Mem(), archConfig(t, "ultra2", 16, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Cycles != b.Stats.Cycles {
		t.Errorf("hybrid C=n (%d cycles) != UltraII (%d cycles)", a.Stats.Cycles, b.Stats.Cycles)
	}
}

// TestEngineConfig: the hybrid refills per cluster.
func TestEngineConfig(t *testing.T) {
	cfg, err := exp.ArchConfig("hybrid", 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Window != 32 || cfg.Granularity != 8 {
		t.Errorf("config %+v", cfg)
	}
}

func TestModel(t *testing.T) {
	md, err := vlsi.HybridModel(128, 32, 32, 32, memory.MConst(1), vlsi.Tech035(), vlsi.Ultra2Linear)
	if err != nil {
		t.Fatal(err)
	}
	if md.N != 128 || md.AreaL2() <= 0 {
		t.Errorf("bad model %+v", md)
	}
}

// TestFaultRecovery: faults injected under cluster refill (g=C) are
// detected by the golden checker and repaired across cluster
// boundaries, so the architectural result still matches the reference
// run.
func TestFaultRecovery(t *testing.T) {
	w := workload.Fib(12)
	want, err := ref.Run(w.Prog, w.Mem(), ref.Config{})
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for seed := int64(1); seed <= 20; seed++ {
		plan := fault.NewPlan(seed, fault.GenParams{
			Window: 16, NumRegs: 32, MaxCycle: 130, N: 3,
		})
		var log fault.Log
		cfg := archConfig(t, "hybrid", 16, 4)
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
