package gatesim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ultrascalar/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/cycles.txt from the current simulators")

// pinnedCycles runs the kernel suite on every machine configuration the
// pin covers and renders one "machine geometry kernel cycles retired"
// line per run.
func pinnedCycles() (string, error) {
	type machine struct {
		name string
		run  func(workload.Workload) (*Result, error)
	}
	// The kernels use r0-r10; 16 registers keep netlist builds cheap.
	const l = 16
	cfg := func(n, m int) Config {
		return Config{Window: n, NumRegs: l, Width: 32, MemBandwidth: m}
	}
	var ms []machine
	for _, n := range []int{1, 2, 8} {
		n := n
		ms = append(ms,
			machine{fmt.Sprintf("ultra1 n=%d", n), func(w workload.Workload) (*Result, error) {
				return Run(w.Prog, w.Mem(), cfg(n, 0))
			}},
			machine{fmt.Sprintf("ultra2 n=%d", n), func(w workload.Workload) (*Result, error) {
				return RunUltra2(w.Prog, w.Mem(), cfg(n, 0))
			}})
	}
	for _, m := range []int{1, 2} {
		m := m
		ms = append(ms,
			machine{fmt.Sprintf("ultra1 n=4 M=%d", m), func(w workload.Workload) (*Result, error) {
				return Run(w.Prog, w.Mem(), cfg(4, m))
			}},
			machine{fmt.Sprintf("ultra2 n=4 M=%d", m), func(w workload.Workload) (*Result, error) {
				return RunUltra2(w.Prog, w.Mem(), cfg(4, m))
			}})
	}
	for _, g := range []struct{ n, c int }{{4, 1}, {4, 2}, {4, 4}, {8, 4}} {
		g := g
		ms = append(ms, machine{fmt.Sprintf("hybrid n=%d C=%d", g.n, g.c), func(w workload.Workload) (*Result, error) {
			return RunHybrid(w.Prog, w.Mem(), HybridConfig{Window: g.n, Cluster: g.c, NumRegs: l, Width: 32})
		}})
	}
	var b strings.Builder
	for _, m := range ms {
		for _, w := range workload.Kernels() {
			res, err := m.run(w)
			if err != nil {
				return "", fmt.Errorf("%s %s: %w", m.name, w.Name, err)
			}
			fmt.Fprintf(&b, "%s %s %d %d\n", m.name, w.Name, res.Cycles, res.Retired)
		}
	}
	return b.String(), nil
}

// TestCyclesPinned compares the cycle and retired counts of the three
// gate-level machines, with and without memory arbitration, against
// testdata/cycles.txt (regenerate with go test -run TestCyclesPinned
// -update).
func TestCyclesPinned(t *testing.T) {
	got, err := pinnedCycles()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "cycles.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d pinned lines, want %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("got %q, pinned %q", gl[i], wl[i])
		}
	}
}
