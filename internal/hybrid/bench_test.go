package hybrid

import (
	"fmt"
	"testing"

	"ultrascalar/internal/core"
	"ultrascalar/internal/workload"
)

// BenchmarkRun measures the hybrid configuration — cluster-grained
// refill, the paper's Ultrascalar II clusters on a CSPP H-tree — through
// core.Run, reporting ns per simulated cycle. The cluster size sweep at
// fixed n exercises the engine's granularity-group drain bookkeeping at
// the three refill regimes between per-station and whole-window (the
// paper's C = Θ(L) sits in the middle).
func BenchmarkRun(b *testing.B) {
	const n = 256
	for _, c := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			ws := workload.Kernels()
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := ws[i%len(ws)]
				res, err := core.Run(w.Prog, w.Mem(), archConfig(b, "hybrid", n, c))
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Stats.Cycles
			}
			if cycles > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
			}
		})
	}
}
