package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ultrascalar/internal/core.(*engine).step":                            "core",
		"ultrascalar/internal/exp.parMapCtx[go.shape.int,go.shape.struct {}]": "exp",
		"ultrascalar/internal/exp.parMapCtx[ultrascalar/internal/fault.Cell]": "exp",
		"ultrascalar/internal/exp.RunFaultCampaignCtx.func1":                  "exp",
		"ultrascalar/internal/obs/log.(*Logger).log":                          "other",
		"ultrascalar/internal/isa.Inst.Reads":                                 "other",
		"math/rand.(*rngSource).Seed":                                         "math_rand",
		"encoding/json.(*encodeState).marshal":                                "encoding_json",
		"net/http.(*conn).serve":                                              "net_http",
		"internal/poll.(*FD).Read":                                            "net_http",
		"syscall.Syscall6":                                                    "syscall",
		"internal/runtime/syscall.Syscall6":                                   "syscall",
		"runtime.scanobject":                                                  "runtime_gc",
		"runtime.gcDrain":                                                     "runtime_gc",
		"runtime.(*mspan).typePointersOfUnchecked":                            "runtime_gc",
		"runtime.mallocgc":                                                    "runtime",
		"runtime.futex":                                                       "runtime",
		"sort.Strings":                                                        "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

// testdata/pprof_top.txt is `go tool pprof -top -nodecount=0
// -nodefraction=0` output for a usserve profile under the serve_mix
// load, with the rows of zero flat time left out.
func TestFoldTop(t *testing.T) {
	data, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := foldTop(string(data))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range selfBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-100) > 1 {
		t.Errorf("shares sum to %.2f%%, want 100%%", sum)
	}
	for _, b := range []string{"core", "exp", "serve", "encoding_json", "syscall", "runtime_gc", "runtime"} {
		if shares[b] <= 0 {
			t.Errorf("bucket %s is empty: %v", b, shares)
		}
	}

	// A row that does not parse, or rows that fall short of the stated
	// total, are errors rather than silently smaller shares.
	header, rows, _ := strings.Cut(string(data), "cum%\n")
	header += "cum%\n"
	if _, err := foldTop(header + "    bogus row\n" + rows); err == nil {
		t.Error("a malformed row was accepted")
	}
	top3 := strings.Join(strings.SplitN(rows, "\n", 4)[:3], "\n")
	if _, err := foldTop(header + top3); err == nil {
		t.Error("a truncated listing was accepted")
	}
	if _, err := foldTop("Total samples = 0\n"); err == nil {
		t.Error("an empty profile was accepted")
	}
}
