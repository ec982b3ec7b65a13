package ultra2

import (
	"fmt"
	"testing"

	"ultrascalar/internal/core"
	"ultrascalar/internal/workload"
)

// BenchmarkRun measures the Ultrascalar II configuration — whole-batch
// refill, the paper's non-wrapping grid — through core.Run across batch
// sizes, reporting ns per simulated cycle. Batch
// refill retires in bursts, so this configuration leans hardest on the
// engine's word-wise drain accounting (one popcount and one range clear
// per freed batch).
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
