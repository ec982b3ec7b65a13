package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by the "exclusive" rule (Hyndman
// and Fan type 6), the default of Python's statistics.quantiles: the
// value at 1-based rank q*(n+1), interpolated linearly between
// neighbours and clamped to the smallest and largest sample. For n >= 3
// its quartiles equal statistics.quantiles(xs, n=4). +Inf samples (a
// refused request, counted as missing every latency limit) sort last.
// An empty input returns NaN.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n+1)
	if pos <= 1 {
		return s[0]
	}
	if pos >= float64(n) {
		return s[n-1]
	}
	j := int(pos) // 1-based rank of the lower neighbour
	frac := pos - float64(j)
	lo, hi := s[j-1], s[j]
	if frac == 0 || lo == hi {
		return lo
	}
	return lo + frac*(hi-lo)
}

// median is the 0.5 quantile (the usual middle value, or the mean of
// the middle two).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure every bound in BENCHMARK.json is checked
// against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}
