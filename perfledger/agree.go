package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// agreeMain compares two sets of untraced runs (JSONL files written
// with -out): set A is the reference (the parent, or the first set of
// the same commit) and set B the candidate. For each workload and
// end-to-end metric it prints both medians, their relative difference,
// the bound from BENCHMARK.json and each set's spread (IQR / median). It
// returns 1 when B is worse than A by more than a bound or any run
// failed an operation, 2 on bad input.
func agreeMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfledger agree A.jsonl B.jsonl")
		return 2
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfledger agree:", err)
		return 2
	}
	var sets [2]map[string][]result
	for i := range sets {
		if sets[i], err = readSet(args[i]); err != nil {
			fmt.Fprintln(os.Stderr, "perfledger agree:", err)
			return 2
		}
	}
	ok, err := agree(w, sp, sets[0], sets[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfledger agree:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

// readSet reads the untraced results of a JSONL file by workload.
func readSet(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace {
			set[r.Workload] = append(set[r.Workload], r.Result)
		}
	}
	return set, sc.Err()
}

// agree writes the comparison table and reports whether no metric of B
// is worse than A's by more than its bound and no run failed. A change
// for the better passes whatever its size. A median of zero, or one
// that is not a number, has no relative difference and is an error.
func agree(w io.Writer, sp *spec, a, b map[string][]result) (bool, error) {
	ok := true
	fmt.Fprintf(w, "%-15s %-17s %12s %12s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "diff", "bound", "spread A", "spread B", "runs")
	for _, wl := range sp.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			return false, fmt.Errorf("workload %s is in only one set", wl.Name)
		}
		for _, set := range [][]result{ra, rb} {
			for _, r := range set {
				if !r.Correct || r.Failed > 0 {
					ok = false
					fmt.Fprintf(w, "%-15s FAILED: %d of %d operations failed\n", wl.Name, r.Failed, r.Attempted)
				}
			}
		}
		for _, em := range sp.EndToEnd {
			va, vb := values(ra, em.Name), values(rb, em.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s: metric %s missing from a set", wl.Name, em.Name)
			}
			ma, mb := median(va), median(vb)
			if ma == 0 || math.IsNaN(ma) || math.IsNaN(mb) {
				return false, fmt.Errorf("%s: metric %s has medians %v and %v", wl.Name, em.Name, ma, mb)
			}
			diff := (mb - ma) / math.Abs(ma)
			worse := diff
			if em.Better == "higher" {
				worse = -diff
			}
			verdict := "ok"
			if worse > em.Bound {
				verdict, ok = "WORSE THAN BOUND", false
			}
			fmt.Fprintf(w, "%-15s %-17s %12.6g %12.6g %+7.2f%% %5.0f%% %7.2f%% %7.2f%%  %d/%d %s\n",
				wl.Name, em.Name, ma, mb, 100*diff, 100*em.Bound, 100*spread(va), 100*spread(vb),
				len(va), len(vb), verdict)
		}
	}
	return ok, nil
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if mv, ok := r.Metrics[name]; ok {
			out = append(out, mv.Value)
		}
	}
	sort.Float64s(out)
	return out
}
