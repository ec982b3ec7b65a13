// Package cspp implements cyclic segmented parallel prefix (CSPP)
// computations, the communication primitive at the heart of all three
// Ultrascalar processors (paper Section 2 and Henry & Kuszmaul,
// "Cyclic Segmented Parallel Prefix", Ultrascalar Memo 1).
//
// A segmented parallel prefix computes, for each position, the accumulated
// result of an associative operator applied over all preceding positions up
// to and including the nearest position whose segment bit is high. The
// cyclic variant ties the ends together: positions with no preceding
// segment bit wrap around to the most recent segment at the other end of
// the array. The Ultrascalar guarantees at least one segment bit is always
// high (the oldest station raises it), so the wrap is well defined.
//
// Two evaluation strategies are provided with identical semantics:
//
//   - Ring: the linear O(n) scan corresponding to the multiplexer-ring
//     datapath of the paper's Figure 1.
//   - Tree: the divide-and-conquer evaluation corresponding to the
//     parallel-prefix tree datapath of the paper's Figure 4, mirroring the
//     structure of the O(log n) gate-delay circuit.
//
// Property tests assert Ring == Tree; the circuit package builds the same
// computation as a gate netlist and is tested against this package, which
// is the functional oracle of those circuit tests.
//
// Nothing in the simulator's run path calls this package. The engine
// (internal/core) computes the same nearest-preceding-writer assignment
// in its operand latch, and that latch is where the fault model's CSPP
// faults land: a merge-bit fault corrupts one merge node's output for a
// logical register, so every station latching that register in the same
// cycle receives the corrupted value — the shared-subtree failure mode
// the tree evaluation implies — while drop-forward and dup-forward faults
// model a segment bit failing open or a stale merge output winning the
// wired-OR.
package cspp

// Op is an associative operator with identity. Identity must satisfy
// Combine(Identity(), x) == x for all x used.
type Op[T any] interface {
	Combine(a, b T) T
	Identity() T
}

// Elem is one input position of a segmented prefix: a segment bit and a
// value. When Seg is high, accumulation restarts at Val.
type Elem[T any] struct {
	Seg bool
	Val T
}

// RingExclusive computes the cyclic segmented prefix by walking the ring,
// exactly as the multiplexer-ring datapath of Figure 1 would settle. The
// output at position i accumulates items j strictly before i in cyclic
// order, back to (and including) the nearest j with Seg high. If no segment
// bit is set anywhere, the result is the identity everywhere (the hardware
// precludes this case: the oldest station always segments).
//
// "Strictly before" gives the exclusive scan the datapath needs: a station
// sees the register values produced by its predecessors, not its own.
func RingExclusive[T any](items []Elem[T], op Op[T]) []T {
	n := len(items)
	out := make([]T, n)
	if n == 0 {
		return out
	}
	// Find the last segment position; accumulation flows from there.
	last := -1
	for i := n - 1; i >= 0; i-- {
		if items[i].Seg {
			last = i
			break
		}
	}
	if last == -1 {
		for i := range out {
			out[i] = op.Identity()
		}
		return out
	}
	// Walk the ring starting at the last segment position, carrying the
	// accumulated value; each position first reads the accumulator (its
	// exclusive result) conceptually, but since we start *at* a segment,
	// we prime the accumulator with that element and emit to successors.
	acc := items[last].Val
	for k := 1; k <= n; k++ {
		i := (last + k) % n // on the final step i == last: full wrap
		out[i] = acc
		if items[i].Seg {
			acc = items[i].Val
		} else {
			acc = op.Combine(acc, items[i].Val)
		}
	}
	return out
}

// TreeExclusive computes the same function as RingExclusive using the
// divide-and-conquer structure of the parallel-prefix tree (Figure 4): an
// up-sweep combining block summaries and a down-sweep distributing
// prefixes, then a final wrap fix-up using the whole-array summary. Its
// recursion depth is ceil(log2 n), matching the circuit's gate depth.
func TreeExclusive[T any](items []Elem[T], op Op[T]) []T {
	n := len(items)
	out := make([]T, n)
	if n == 0 {
		return out
	}
	incl, covered, total := scanTree(items, op)
	// Exclusive shift: position i uses the inclusive result of i-1.
	// Wrap: if nothing before i is covered, use the whole-array summary
	// (value since the last segment through the end) combined with the raw
	// prefix of [0..i-1] — which, uncovered, is exactly incl[i-1].
	if !total.covered {
		// No segment anywhere: the cyclic exclusive scan is the identity
		// everywhere (the datapath precludes this case).
		for i := range out {
			out[i] = op.Identity()
		}
		return out
	}
	for i := 0; i < n; i++ {
		var ev T
		var ec bool
		if i == 0 {
			ev, ec = op.Identity(), false
		} else {
			ev, ec = incl[i-1], covered[i-1]
		}
		if ec {
			out[i] = ev
		} else {
			out[i] = op.Combine(total.val, ev)
		}
	}
	return out
}

// summary describes a block: val is the accumulated value since the last
// segment in the block (or since the block start if no segment), covered
// reports whether the block contains a segment.
type summary[T any] struct {
	val     T
	covered bool
}

// scanTree returns the inclusive segmented scan, per-position covered
// flags, and the whole-block summary, via balanced recursion.
func scanTree[T any](items []Elem[T], op Op[T]) (incl []T, covered []bool, total summary[T]) {
	n := len(items)
	incl = make([]T, n)
	covered = make([]bool, n)
	total = scanRec(items, incl, covered, op)
	return incl, covered, total
}

func scanRec[T any](items []Elem[T], incl []T, covered []bool, op Op[T]) summary[T] {
	n := len(items)
	if n == 1 {
		if items[0].Seg {
			incl[0] = items[0].Val
			covered[0] = true
			return summary[T]{val: items[0].Val, covered: true}
		}
		incl[0] = op.Combine(op.Identity(), items[0].Val)
		covered[0] = false
		return summary[T]{val: incl[0], covered: false}
	}
	half := n / 2
	left := scanRec(items[:half], incl[:half], covered[:half], op)
	right := scanRec(items[half:], incl[half:], covered[half:], op)
	// Fix up the right half: positions not covered within the right block
	// continue accumulation from the left block's tail value.
	for i := half; i < n; i++ {
		if !covered[i] {
			incl[i] = op.Combine(left.val, incl[i])
			covered[i] = left.covered
		}
	}
	if right.covered {
		return summary[T]{val: right.val, covered: true}
	}
	return summary[T]{val: op.Combine(left.val, right.val), covered: left.covered}
}
