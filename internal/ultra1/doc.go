// Package ultra1 defines the Ultrascalar I processor (paper Sections 2-3):
// a ring of n execution stations, each holding a full copy of the logical
// register file, connected by one cyclic segmented parallel-prefix tree
// per logical register and laid out as an H-tree.
//
// Characteristics (paper Figure 11):
//
//	gate delay  Θ(log n)
//	wire delay  Θ(√n·L)            for M(n) = O(n^{1/2-ε})
//	            Θ(√n·(L + log n))  for M(n) = Θ(n^{1/2})
//	            Θ(√n·L + M(n))     for M(n) = Ω(n^{1/2+ε})
//	area        wire delay squared
//
// Stations refill individually: "Stations holding finished instructions
// are reused as soon as all earlier instructions finish" — engine
// granularity 1. The machine is exp.ArchConfig("ultra1", n, 0) run by
// core.Run, and its physical model is vlsi.UltraIModel; this package
// holds their tests.
package ultra1
