package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4),
// which the ledger's acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{9, 1, 2, 1, 2, 1}, 1, 1.5, 3.75}, // ties, unsorted
		{[]float64{5, 5, 5, 5}, 5, 5, 5},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		got := []float64{quantile(tc.xs, 0.25), quantile(tc.xs, 0.5), quantile(tc.xs, 0.75)}
		want := []float64{tc.q1, tc.q2, tc.q3}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Errorf("quartiles of %v = %v, want %v", tc.xs, got, want)
				break
			}
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	// Percentiles clamp to the sample range instead of extrapolating.
	if got := quantile([]float64{1, 2}, 0.99); got != 2 {
		t.Errorf("p99 of {1,2} = %v, want 2", got)
	}
	// A refused request (+Inf) sorts last: it moves the tail, not the
	// median.
	xs := []float64{1, 2, 3, math.Inf(1)}
	if got := median(xs); got != 2.5 {
		t.Errorf("median with one +Inf = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with one +Inf = %v, want +Inf", got)
	}
	if got := median([]float64{math.Inf(1), math.Inf(1)}); !math.IsInf(got, 1) {
		t.Errorf("median of all +Inf = %v, want +Inf", got)
	}
	xs = []float64{4, 2, 3, 1}
	quantile(xs, 0.5)
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}
