package ultra1

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

// config returns exp.ArchConfig's Ultrascalar I configuration at window n.
func config(t testing.TB, n int) core.Config {
	t.Helper()
	cfg, err := exp.ArchConfig("ultra1", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRunMatchesGolden(t *testing.T) {
	w := workload.Fib(15)
	want, err := ref.Run(w.Prog, w.Mem(), ref.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Run(w.Prog, w.Mem(), config(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	if got.Regs[3] != want.Regs[3] {
		t.Errorf("r3 = %d, want %d", got.Regs[3], want.Regs[3])
	}
}

// TestEngineConfig: the Ultrascalar I refills per station whatever
// cluster size is passed.
func TestEngineConfig(t *testing.T) {
	cfg, err := exp.ArchConfig("ultra1", 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Window != 32 || cfg.Granularity != 1 {
		t.Errorf("config %+v, want window 32 granularity 1", cfg)
	}
}

func TestModel(t *testing.T) {
	md, err := vlsi.UltraIModel(64, 32, 32, memory.MConst(1), vlsi.Tech035(), vlsi.UltraIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if md.N != 64 || md.GateDelay <= 0 || md.AreaL2() <= 0 {
		t.Errorf("bad model %+v", md)
	}
}

// TestFaultRecovery: faults injected into the per-station ring (g=1) are
// detected by the golden checker and repaired by squash-and-replay, so
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
			Window: 16, NumRegs: 32, MaxCycle: 120, N: 3,
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
