package gatesim

import (
	"math"
	"testing"

	"ultrascalar/internal/workload"
)

// TestAllocsIndependentOfProgramLength: a run allocates its netlists and
// buffers up front and nothing per cycle or per instruction, so a chain
// ten times longer costs exactly as many allocations.
func TestAllocsIndependentOfProgramLength(t *testing.T) {
	cfg := Config{Window: 4, NumRegs: 8, Width: 32}
	arb := cfg
	arb.MemBandwidth = 1
	for _, m := range []struct {
		name string
		run  func(workload.Workload) (*Result, error)
	}{
		{"ultra1", func(w workload.Workload) (*Result, error) { return Run(w.Prog, w.Mem(), cfg) }},
		{"ultra2", func(w workload.Workload) (*Result, error) { return RunUltra2(w.Prog, w.Mem(), cfg) }},
		{"hybrid C=2", func(w workload.Workload) (*Result, error) {
			return RunHybrid(w.Prog, w.Mem(), HybridConfig{Window: 4, Cluster: 2, NumRegs: 8, Width: 32})
		}},
		{"ultra1 M=1", func(w workload.Workload) (*Result, error) { return Run(w.Prog, w.Mem(), arb) }},
	} {
		// The runtime now and then allocates on its own behalf during a
		// measured run, so each count is the least of three.
		var counts [2]float64
		for i, w := range []workload.Workload{workload.Chain(50), workload.Chain(500)} {
			counts[i] = math.Inf(1)
			for range 3 {
				counts[i] = min(counts[i], testing.AllocsPerRun(1, func() {
					if _, err := m.run(w); err != nil {
						t.Fatalf("%s %s: %v", m.name, w.Name, err)
					}
				}))
			}
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: %v allocations for Chain(50), %v for Chain(500)", m.name, counts[0], counts[1])
		}
	}
}

// FuzzGateLevelVsGolden runs a seeded MixedILP, PointerChase or Branchy
// program on all three gate-level machines, with a window of 1-8 and a
// cluster size dividing it, and requires each to reproduce the golden
// interpreter's registers, memory and retired count.
func FuzzGateLevelVsGolden(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(12), uint8(3), uint8(1))
	f.Add(uint8(1), int64(7), uint8(6), uint8(5), uint8(2))
	f.Add(uint8(2), int64(2), uint8(5), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, size, window, cluster uint8) {
		n := 1 + int(window)%8
		var divisors []int
		for c := 1; c <= n; c++ {
			if n%c == 0 {
				divisors = append(divisors, c)
			}
		}
		k := 1 + int(size)%32
		var w workload.Workload
		switch kind % 3 {
		case 0:
			w = workload.MixedILP(k, 12, 6, seed)
		case 1:
			w = workload.PointerChase(k, seed)
		default:
			w = workload.Branchy(k, seed%2 == 0)
		}
		const l = 16 // the generators use r0-r12
		crossCheck(t, w, Config{Window: n, NumRegs: l})
		crossCheck2(t, w, Config{Window: n, NumRegs: l})
		crossCheckHybrid(t, w, HybridConfig{Window: n, Cluster: divisors[int(cluster)%len(divisors)], NumRegs: l})
	})
}
