// Package ultra2 defines the Ultrascalar II processor (paper Sections
// 4-5): a linear (non-wrapping) batch of n execution stations over a
// grid-like datapath that routes only argument and result registers,
// reimplementable as a mesh of trees for logarithmic gate delay.
//
// Characteristics (paper Figure 11):
//
//	linear datapath:  gate delay Θ(n+L),        side Θ(n+L)
//	mesh of trees:    gate delay Θ(log(n+L)),   side Θ((n+L)·log(n+L))
//	mixed strategy:   near-log gate delay at the linear side (Section 5)
//
// The batch does not wrap around: "stations idle waiting for everyone to
// finish before refilling" — engine granularity n. The machine is
// exp.ArchConfig("ultra2", n, 0) run by core.Run, and its physical model
// is vlsi.Ultra2Model in one of the datapath modes; this package holds
// their tests.
package ultra2
