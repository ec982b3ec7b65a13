package core

// Struct-of-arrays station storage. The engine keeps no per-station
// structs: every station field lives in a parallel slice indexed by slot,
// and every boolean station flag lives in a bitvec — a []uint64 bitmap
// with one bit per slot. The per-cycle phases then run word-at-a-time:
// math/bits.TrailingZeros64 walks set bits, OnesCount64 takes occupancy
// and squash counts, and mask algebra clears whole squash ranges — the
// software analogue of the paper's wired parallel-prefix datapath, where
// one gate per station evaluates in parallel instead of a pointer chase
// per station.
//
// Layout invariants:
//
//   - Slots are assigned round-robin by dynamic sequence number
//     (slot = seq mod Window), so the live window always occupies a
//     contiguous circular run of slots: ages 0..occ-1 map to slots
//     head, head+1, ..., (head+occ-1) mod Window. Age-order iteration is
//     two linear spans (liveSpans), never a modulo per station.
//   - Every state bitvec (stateVecs: ready, started, done, ... and the
//     class bits) is a subset of busy: retiring and squashing clear a
//     slot's bits in all of them, so fetch only sets bits and word scans
//     never need a busy mask to exclude stale state.
//   - drained is NOT in stateVecs: it marks retired slots waiting for
//     their granularity group to drain, and is cleared word-wise when the
//     group's drained popcount reaches the granularity.

import (
	"math/bits"

	"ultrascalar/internal/isa"
)

// bitvec is a bitmap over station slots, one uint64 word per 64 slots.
type bitvec []uint64

func (b bitvec) get(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }
func (b bitvec) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitvec) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }

// put sets bit i to v without branching on v.
func (b bitvec) put(i int, v bool) {
	w, s := i>>6, uint(i)&63
	var x uint64
	if v {
		x = 1
	}
	b[w] = b[w]&^(1<<s) | x<<s
}

// spanMask returns the bits of word w that fall inside the slot range
// [lo, hi). It is the edge-mask primitive every word-at-a-time loop uses
// to trim the first and last word of a span.
func spanMask(lo, hi, w int) uint64 {
	base := w << 6
	l, h := lo-base, hi-base
	if l < 0 {
		l = 0
	}
	if h > 64 {
		h = 64
	}
	if l >= h {
		return 0
	}
	m := ^uint64(0) << uint(l)
	if h < 64 {
		m &= 1<<uint(h) - 1
	}
	return m
}

// clearRange clears all bits in [lo, hi).
func (b bitvec) clearRange(lo, hi int) {
	if lo >= hi {
		return
	}
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		b[w] &^= spanMask(lo, hi, w)
	}
}

// onesRange counts set bits in [lo, hi).
func (b bitvec) onesRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	n := 0
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		n += bits.OnesCount64(b[w] & spanMask(lo, hi, w))
	}
	return n
}

// stations is the struct-of-arrays station file: one parallel slice per
// scalar field, one bitvec per boolean flag, all indexed by slot. The
// slices are carved from one arena allocation per element type, so
// constructing a window is a handful of allocations regardless of size.
type stations struct {
	// Scalar state.
	seq       []int64 // dynamic sequence number
	issue     []int64 // cycle the instruction issued
	doneAt    []int64 // first cycle the result is visible to consumers
	memDoneAt []int64 // cycle a granted memory access completes

	pc         []int32
	predNext   []int32 // predicted successor; -1: unknown (JALR, cold BTB)
	actualNext []int32 // resolved successor (valid once resolved)
	remaining  []int32 // execution cycles left once started
	histSnap   []int32 // speculative-history snapshot (SpecPredictor)

	// Per-operand state, indexed [operand][slot]. srcD is the distance
	// back to the operand's producer, fixed at fetch (-1 = an initial
	// register value); relatch (engine.go) derives every latch from it.
	// srcSlot is the wakeup link: the slot of the still-executing producer
	// the operand waits on, -1 once the value is latched; srcSeq holds the
	// producer's sequence number, so a wake drain can tell a retired
	// producer from the slot's next occupant.
	srcD    [2][]int32
	srcSlot [2][]int32
	srcSeq  [2][]int64
	// Consumer lists: consHead[p] heads a singly-linked list of operand
	// nodes (node = consumerSlot<<1 | operandIndex) waiting on the
	// producer in slot p; consNext links nodes (2 per slot). wakeSlot and
	// wakeSeq are the completed-producer event queue drained by forward
	// (engine.wakeN is its length).
	consHead []int32
	consNext []int32
	wakeSlot []int32
	wakeSeq  []int64

	a, b      []isa.Word // latched operands
	result    []isa.Word
	storeAddr []isa.Word // granted store's effect (fault campaigns only)
	storeVal  []isa.Word

	dest  []uint8
	class []uint8
	r1    []uint8 // source registers, decoded once at fetch
	r2    []uint8
	nsrc  []uint8 // static source-register count (ReadRegs)

	inst []isa.Inst

	// Flag bitvecs, one bit per slot. Everything except drained is a
	// subset of busy (see the package comment above).
	busy        bitvec // live (fetched, unretired, unsquashed) station
	ready       bitvec // operands latched and available (opsReady)
	started     bitvec
	done        bitvec // result available to consumers (end of done cycle)
	resolved    bitvec // control flow resolved
	flowDone    bitvec // resolution processed by the recovery phase
	memInFlight bitvec
	memDone     bitvec
	writes      bitvec // instruction writes a register
	usedSpec    bitvec // predicted through PredictSpec
	parityBad   bitvec // result bits flipped after parity generation
	load        bitvec // class bits, precomputed at fetch for word scans
	store       bitvec
	flow        bitvec
	branch      bitvec
	alu         bitvec // consumes an ALU slot (class&clsNoALU == 0)
	drained     bitvec // retired, waiting for its granularity group

	// stateVecs lists every bitvec except drained: retire clears a slot
	// in all of them, squash clears whole ranges with mask algebra, and
	// fetch only sets bits — which is what keeps every vec ⊆ busy.
	stateVecs []bitvec
}

// push links operand node (consumerSlot<<1 | operandIndex) onto the
// consumer list of the producer in slot p.
func (st *stations) push(node, p int32) {
	st.consNext[node] = st.consHead[p]
	st.consHead[p] = node
}

// carve slices n elements off the front of an arena, capacity-clamped so
// the carved slices can never alias each other through append.
func carve[T any](arena *[]T, n int) []T {
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

// stationArena64 and stationArenaWords are the int64 and isa.Word arena
// shares of a w-slot station file; RunCtx sizes its combined arenas with
// them so the station and engine slices come out of one allocation per
// element type.
func stationArena64(w int) int    { return 7 * w }
func stationArenaWords(w int) int { return 5 * w }

// newStations builds the station file for a w-slot window, carving the
// int64 and isa.Word slices off the caller's arenas (sized with
// stationArena64/stationArenaWords).
func newStations(w int, i64 *[]int64, wrd *[]isa.Word) stations {
	nw := (w + 63) >> 6
	i32 := make([]int32, 13*w)
	u8 := make([]uint8, 5*w)
	bw := make([]uint64, 17*nw)
	var st stations
	st.seq = carve(i64, w)
	st.issue = carve(i64, w)
	st.doneAt = carve(i64, w)
	st.memDoneAt = carve(i64, w)
	for k := range st.srcD {
		st.srcSeq[k] = carve(i64, w)
		st.srcD[k] = carve(&i32, w)
		st.srcSlot[k] = carve(&i32, w)
	}
	st.pc = carve(&i32, w)
	st.predNext = carve(&i32, w)
	st.actualNext = carve(&i32, w)
	st.remaining = carve(&i32, w)
	st.histSnap = carve(&i32, w)
	st.consHead = carve(&i32, w)
	st.consNext = carve(&i32, 2*w)
	st.wakeSlot = carve(&i32, w)
	st.wakeSeq = carve(i64, w)
	st.a = carve(wrd, w)
	st.b = carve(wrd, w)
	st.result = carve(wrd, w)
	st.storeAddr = carve(wrd, w)
	st.storeVal = carve(wrd, w)
	st.dest = carve(&u8, w)
	st.class = carve(&u8, w)
	st.r1 = carve(&u8, w)
	st.r2 = carve(&u8, w)
	st.nsrc = carve(&u8, w)
	st.inst = make([]isa.Inst, w)
	st.busy = carve(&bw, nw)
	st.ready = carve(&bw, nw)
	st.started = carve(&bw, nw)
	st.done = carve(&bw, nw)
	st.resolved = carve(&bw, nw)
	st.flowDone = carve(&bw, nw)
	st.memInFlight = carve(&bw, nw)
	st.memDone = carve(&bw, nw)
	st.writes = carve(&bw, nw)
	st.usedSpec = carve(&bw, nw)
	st.parityBad = carve(&bw, nw)
	st.load = carve(&bw, nw)
	st.store = carve(&bw, nw)
	st.flow = carve(&bw, nw)
	st.branch = carve(&bw, nw)
	st.alu = carve(&bw, nw)
	st.drained = carve(&bw, nw)
	st.stateVecs = []bitvec{
		st.busy, st.ready, st.started, st.done, st.resolved, st.flowDone,
		st.memInFlight, st.memDone, st.writes, st.usedSpec, st.parityBad,
		st.load, st.store, st.flow, st.branch, st.alu,
	}
	return st
}
