package main

import (
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Self-time buckets: each package's share of a CPU profile's flat
// samples. The module's packages are named after their directory; the
// standard library buckets group what serving and campaigns spend on
// randomness, JSON, the network stack, system calls and the garbage
// collector. Everything else is "other".
var (
	moduleBuckets = []string{"core", "fault", "ref", "exp", "gatesim", "circuit", "vlsi", "serve", "atomicio"}
	selfBuckets   = append(append([]string{}, moduleBuckets...),
		"math_rand", "encoding_json", "net_http", "syscall", "runtime_gc", "runtime", "other")
)

var stdBuckets = map[string]string{
	"math/rand":                "math_rand",
	"encoding/json":            "encoding_json",
	"net/http":                 "net_http",
	"net":                      "net_http",
	"internal/poll":            "net_http",
	"syscall":                  "syscall",
	"internal/runtime/syscall": "syscall",
	"runtime/internal/syscall": "syscall",
	"internal/syscall/unix":    "syscall",
}

// gcFuncs are the runtime functions (name after "runtime.") that do
// garbage-collection work: marking, scanning, sweeping and barriers.
var gcFuncs = []string{
	"gc", "(*gc", "scan", "greyobject", "findObject", "markBits", "(*markBits)", "markroot",
	"(*mspan).sweep", "(*sweepLocked)", "sweepone", "bgsweep", "bgscavenge", "(*scavenger",
	"wbBuf", "(*wbBuf)", "bulkBarrier", "typePointers", "(*mspan).typePointers", "(*gcBits)",
	"spanOf", "heapBits", "(*mspan).heapBits", "(*mheap).", "shade",
}

// funcPackage returns the import path of a profiled function name such
// as "ultrascalar/internal/core.(*engine).step" or a generic
// "ultrascalar/internal/exp.parMapCtx[...]" (the type arguments may
// themselves contain slashes and dots).
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// bucketOf maps a profiled function to its self-time bucket.
func bucketOf(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "ultrascalar/internal/"); ok {
		for _, b := range moduleBuckets {
			if rest == b {
				return b
			}
		}
		return "other"
	}
	if b, ok := stdBuckets[pkg]; ok {
		return b
	}
	if pkg == "runtime" {
		name := strings.TrimPrefix(fn, "runtime.")
		for _, p := range gcFuncs {
			if strings.HasPrefix(name, p) {
				return "runtime_gc"
			}
		}
		return "runtime"
	}
	return "other"
}

var (
	totalRE = regexp.MustCompile(`Total samples = (\S+)`)
	rowRE   = regexp.MustCompile(`^\s*(\S+)\s+\S+%\s+\S+%\s+\S+\s+\S+%\s+(.+?)(?: \(inline\))?$`)
)

// parseDuration reads pprof's sample values: "0", "10ms", "1.20s",
// "1.5mins", "350us" or "350µs".
func parseDuration(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	s = strings.Replace(s, "mins", "m", 1)
	s = strings.Replace(s, "hrs", "h", 1)
	return time.ParseDuration(s)
}

// foldTop folds the output of `go tool pprof -top` into each bucket's
// share (%) of the profile's samples. Every row must parse: the rows
// must account for at least 95% of the total the header states.
func foldTop(out string) (map[string]float64, error) {
	tm := totalRE.FindStringSubmatch(out)
	if tm == nil {
		return nil, fmt.Errorf("pprof output has no sample total")
	}
	total, err := parseDuration(tm[1])
	if err != nil {
		return nil, fmt.Errorf("pprof total %q: %w", tm[1], err)
	}
	if total <= 0 {
		return nil, fmt.Errorf("the profile has no samples")
	}
	flat := map[string]time.Duration{}
	var sum time.Duration
	inRows := false
	for _, line := range strings.Split(out, "\n") {
		if !inRows {
			inRows = strings.Contains(line, "flat%") && strings.Contains(line, "cum%")
			continue
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		rm := rowRE.FindStringSubmatch(line)
		if rm == nil {
			return nil, fmt.Errorf("pprof row %q does not parse", line)
		}
		d, err := parseDuration(rm[1])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		flat[bucketOf(rm[2])] += d
		sum += d
	}
	if float64(sum) < 0.95*float64(total) {
		return nil, fmt.Errorf("pprof rows account for %v of %v samples", sum, total)
	}
	shares := map[string]float64{}
	for _, b := range selfBuckets {
		shares[b] = 100 * float64(flat[b]) / float64(total)
	}
	return shares, nil
}

// foldProfile runs `go tool pprof -top` on a CPU profile and folds it.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", path).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w: %s", path, err, out)
	}
	return foldTop(string(out))
}

// largestBucket names the bucket with the largest share.
func largestBucket(shares map[string]float64) (string, float64) {
	best, share := "", -1.0
	for _, b := range selfBuckets {
		if shares[b] > share {
			best, share = b, shares[b]
		}
	}
	return best, share
}

// formatShares renders the buckets above 1% for the log.
func formatShares(shares map[string]float64) string {
	var parts []string
	for _, b := range selfBuckets {
		if shares[b] >= 1 {
			parts = append(parts, b+"="+strconv.FormatFloat(shares[b], 'f', 1, 64)+"%")
		}
	}
	return strings.Join(parts, " ")
}
