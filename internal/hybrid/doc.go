// Package hybrid defines the hybrid Ultrascalar processor (paper Section
// 6): clusters of C stations, each an Ultrascalar II grid extended with
// modified-bit OR trees, connected by the Ultrascalar I CSPP H-tree.
// "Each cluster behaves just like an execution station in the
// Ultrascalar I."
//
// Characteristics (paper Figure 11, with linear-gate clusters and
// C = Θ(L)):
//
//	gate delay  Θ(L + log n)
//	wire delay  Θ(√(nL) + M(n))   — optimal for n ≥ L
//	area        Θ(nL + M(n)²)
//
// The hybrid dominates both other processors for n ≥ L. Clusters refill
// together — engine granularity C. The machine is
// exp.ArchConfig("hybrid", n, c) run by core.Run, and its physical model
// is vlsi.HybridModel; the paper's choice of cluster size is C = L ("it
// is not a coincidence that C = L"), and vlsi.OptimalClusterSize sweeps
// it. This package holds their tests.
package hybrid
