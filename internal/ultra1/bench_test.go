package ultra1

import (
	"fmt"
	"testing"

	"ultrascalar/internal/core"
	"ultrascalar/internal/workload"
)

// BenchmarkRun measures the Ultrascalar I configuration — per-station
// refill, the paper's ring — through core.Run across window sizes,
// reporting ns per simulated cycle. Scaling the window is the point of
// the paper, so the per-cycle cost of the SoA bitmap engine must stay
// near-flat as n grows (the word-at-a-time scans touch only live spans
// and wakeups, not the whole window).
func BenchmarkRun(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ws := workload.Kernels()
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := ws[i%len(ws)]
				res, err := core.Run(w.Prog, w.Mem(), config(b, n))
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
