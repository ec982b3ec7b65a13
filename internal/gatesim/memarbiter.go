package gatesim

import "ultrascalar/internal/circuit"

// memArbiter wraps one instance of the gate-level fat-tree arbiter
// netlist for per-cycle memory-access arbitration: per-level link
// capacities min(2^h, M), age tags giving the oldest requests priority.
type memArbiter struct {
	ev     *circuit.Evaluator
	layout circuit.FatTreeArbiterLayout
	in     []bool
}

func newMemArbiter(n, m int) *memArbiter {
	// Round the station count up to a power of two for the tree.
	size := 1
	levels := 0
	for size < n {
		size *= 2
		levels++
	}
	if levels == 0 {
		size, levels = 2, 1 // a degenerate 1-station tree still needs a root
	}
	caps := make([]int, levels)
	for h := 1; h <= levels; h++ {
		c := 1 << h
		if c > m {
			c = m
		}
		caps[h-1] = c
	}
	tagW := 1
	for 1<<tagW < size {
		tagW++
	}
	tagW++ // headroom so ages 0..size-1 are distinct tags
	c, lay := circuit.FatTreeArbiter(size, tagW, caps)
	return &memArbiter{ev: c.NewEvaluator(), layout: lay, in: make([]bool, 0, lay.N*(1+lay.TagW))}
}

// grants evaluates the arbiter netlist: reqs and ages are indexed by ring
// position; ages must be distinct for requesting positions. The result
// is valid until the next call.
func (a *memArbiter) grants(reqs []bool, ages []int) []bool {
	in := a.in[:0]
	for i := 0; i < a.layout.N; i++ {
		req := i < len(reqs) && reqs[i]
		age := 0
		if i < len(ages) {
			age = ages[i]
		}
		in = append(in, req)
		for b := 0; b < a.layout.TagW; b++ {
			in = append(in, age>>uint(b)&1 == 1)
		}
	}
	return a.ev.Eval(in)[:len(reqs)]
}
