package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ultrascalar/internal/vlsi"
)

func TestSharedALUsMonotone(t *testing.T) {
	rows, err := SharedALUs(128, []int{1, 4, 16, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Cycles are nonincreasing with more ALUs; 16 shared ALUs get within
	// 20% of one-per-station on the mixed workload (the paper's claim
	// that sharing is effective).
	for i := 1; i < len(rows); i++ {
		if rows[i].Cycles > rows[i-1].Cycles {
			t.Errorf("cycles should not grow with ALUs: %+v", rows)
		}
	}
	full := rows[len(rows)-1].Cycles
	sixteen := rows[2].Cycles
	if float64(sixteen) > 1.2*float64(full) {
		t.Errorf("16 shared ALUs at %d cycles vs %d with full ALUs: sharing should be cheap",
			sixteen, full)
	}
	rep, err := SharedALUsReport(128)
	if err != nil || !strings.Contains(rep, "one per station") {
		t.Errorf("report bad: %v", err)
	}
}

func TestSelfTimedChainKeepsCycles(t *testing.T) {
	rows, err := SelfTimed(32)
	if err != nil {
		t.Fatal(err)
	}
	var chain *SelfTimedRow
	for i := range rows {
		if rows[i].Workload == "chain" {
			chain = &rows[i]
		}
		if rows[i].Slowdown < 0.999 {
			t.Errorf("%s: self-timed cannot be faster in cycles (ratio %.2f)",
				rows[i].Workload, rows[i].Slowdown)
		}
	}
	if chain == nil {
		t.Fatal("chain workload missing")
	}
	if chain.Slowdown > 1.001 {
		t.Errorf("chain slowdown %.3f, want 1.0 (all distance-1)", chain.Slowdown)
	}
	if chain.LocalFrac < 0.9 {
		t.Errorf("chain local fraction %.2f, want ~1", chain.LocalFrac)
	}
	if _, err := SelfTimedReport(32); err != nil {
		t.Error(err)
	}
}

func TestMemRenamingWinsWhenBandwidthScarce(t *testing.T) {
	rows, err := MemRenaming(16)
	if err != nil {
		t.Fatal(err)
	}
	// At M(n)=1 renaming must cut cycles and tree traffic.
	r := rows[0]
	if r.RenamedCycles >= r.BaseCycles {
		t.Errorf("renaming should win at M=1: %d vs %d", r.RenamedCycles, r.BaseCycles)
	}
	if r.ForwardedLoads == 0 || r.TreeAccessesOn >= r.TreeAccessesOff {
		t.Errorf("renaming should remove tree accesses: %+v", r)
	}
	if _, err := MemRenamingReport(16); err != nil {
		t.Error(err)
	}
}

func TestFetchModelRows(t *testing.T) {
	rows, err := FetchModels(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ideal > r.Block {
			t.Errorf("%s: ideal (%d) should not exceed block (%d)", r.Workload, r.Ideal, r.Block)
		}
		if r.Workload == "jumpy" {
			if !(r.Ideal <= r.TraceCycles && r.TraceCycles < r.Block) {
				t.Errorf("jumpy: want ideal (%d) <= trace (%d) < block (%d)",
					r.Ideal, r.TraceCycles, r.Block)
			}
		}
	}
	if _, err := FetchModelsReport(64); err != nil {
		t.Error(err)
	}
}

func TestLargeLGrowsAdvantage(t *testing.T) {
	rows, err := LargeL(vlsi.Tech035())
	if err != nil {
		t.Fatal(err)
	}
	// The per-station advantage grows with the register-file size and is
	// "dramatic" at 64x64.
	first, last := rows[0], rows[len(rows)-1]
	if last.AreaRatio <= first.AreaRatio {
		t.Errorf("advantage should grow with L,W: %.1f -> %.1f", first.AreaRatio, last.AreaRatio)
	}
	if last.AreaRatio < 10 {
		t.Errorf("64x64 advantage %.1fx, expected dramatic (>10x)", last.AreaRatio)
	}
	if _, err := LargeLReport(vlsi.Tech035()); err != nil {
		t.Error(err)
	}
}

func TestReturnStackAblation(t *testing.T) {
	rows, err := ReturnStack(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch r.Workload {
		case "hanoi", "quicksort":
			if r.RASCycles >= r.BTBCycles || r.RASMispredicts >= r.BTBMispredicts {
				t.Errorf("%s: RAS should win: %+v", r.Workload, r)
			}
		case "gcd":
			if r.RASCycles != r.BTBCycles {
				t.Errorf("gcd has no calls; RAS changed cycles %d -> %d",
					r.BTBCycles, r.RASCycles)
			}
		}
	}
	if _, err := ReturnStackReport(32); err != nil {
		t.Error(err)
	}
}

func TestGateLevelMatches(t *testing.T) {
	rows, err := GateLevel(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no gate-level rows")
	}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("%s: gate-level state mismatch", r.Workload)
		}
		if r.Ultra2Cycles < r.Ultra1Cycles {
			t.Errorf("%s: gate-level UltraII (%d) beat UltraI (%d)",
				r.Workload, r.Ultra2Cycles, r.Ultra1Cycles)
		}
	}
	rep := formatGateLevel(4, rows)
	if !strings.Contains(rep, "MATCH") || strings.Contains(rep, "MISMATCH") {
		t.Errorf("gate-level report bad")
	}
	// The E18 text, every gate-level cycle count included, is pinned.
	want, err := os.ReadFile(filepath.Join("testdata", "e18-window4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if rep != string(want) {
		t.Errorf("E18 report differs from testdata/e18-window4.txt:\n--- got ---\n%s--- want ---\n%s", rep, want)
	}
}

func TestClusterCachesWin(t *testing.T) {
	rows, err := ClusterCaches(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, r := range rows {
		if r.CacheCycles < r.BaseCycles && r.ClusterHits > 0 {
			wins++
		}
	}
	if wins == 0 {
		t.Errorf("cluster caches should help at least one workload: %+v", rows)
	}
	if _, err := ClusterCachesReport(16, 4); err != nil {
		t.Error(err)
	}
}
