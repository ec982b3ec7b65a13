package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no driver", w.Name)
		}
	}
	if len(workloads) != len(sp.Workloads) {
		t.Errorf("%d drivers, %d workloads listed", len(workloads), len(sp.Workloads))
	}
	e2e := map[string]bool{}
	for _, em := range sp.EndToEnd {
		e2e[em.Name] = true
	}
	for _, lm := range sp.PerLayer {
		tg, ok := layerTarget(lm.Name)
		if !ok {
			t.Errorf("layer metric %s names no end-to-end metric", lm.Name)
			continue
		}
		if !e2e[tg.metric] {
			t.Errorf("layer metric %s moves %s, which is not an end-to-end metric", lm.Name, tg.metric)
		}
		if tg.workload != "each" && !sp.hasWorkload(tg.workload) {
			t.Errorf("layer metric %s moves %s on unknown workload %s", lm.Name, tg.metric, tg.workload)
		}
	}
	// Every measured phase stays under maxPhaseSeconds: the run itself,
	// and each rate step of serve_mix.
	run := time.Duration(sp.RunSeconds) * time.Second
	for _, st := range serveSteps(run) {
		if st.dur > maxPhaseSeconds*time.Second {
			t.Errorf("serve step of %v is longer than %d s", st.dur, maxPhaseSeconds)
		}
	}
	// The command runs the benchmark from inside its own directory.
	for _, arg := range sp.Command {
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, sp.Paths[0]+"/") {
			t.Errorf("command argument %q is outside %s", arg, sp.Paths[0])
		}
	}
}

func TestSpecValidation(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *spec {
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		return &s
	}
	many := func(n int, unit string) []layerMetric {
		out := make([]layerMetric, n)
		for i := range out {
			out[i] = layerMetric{Name: fmt.Sprintf("m%d", i), Unit: unit, Better: "lower"}
		}
		return out
	}
	for name, mutate := range map[string]func(*spec){
		"bad name charset":      func(s *spec) { s.PerLayer[0].Name = "core ns" },
		"name starts with dot":  func(s *spec) { s.PerLayer[0].Name = ".core" },
		"name over 64":          func(s *spec) { s.PerLayer[0].Name = strings.Repeat("a", 65) },
		"duplicate name":        func(s *spec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"bad unit":              func(s *spec) { s.PerLayer[0].Unit = "m s" },
		"bad direction":         func(s *spec) { s.EndToEnd[0].Better = "smaller" },
		"bound over 0.25":       func(s *spec) { s.EndToEnd[0].Bound = 0.3 },
		"no setup_s":            func(s *spec) { s.EndToEnd = s.EndToEnd[1:] },
		"17 end-to-end metrics": func(s *spec) { s.EndToEnd = make([]e2eMetric, 17) },
		"129 layer metrics":     func(s *spec) { s.PerLayer = many(129, "ms") },
		"phase over 30 s":       func(s *spec) { s.RunSeconds = 31 },
		"one workload":          func(s *spec) { s.Workloads = s.Workloads[:1] },
		"two-line why":          func(s *spec) { s.Workloads[0].Why = "a\nb" },
		"absolute path":         func(s *spec) { s.Paths = []string{"/perfledger"} },
		"path out of repo":      func(s *spec) { s.Paths = []string{"../x"} },
	} {
		s := fresh()
		mutate(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: validate accepted it", name)
		}
	}
	if err := fresh().validate(); err != nil {
		t.Errorf("unmodified spec: %v", err)
	}
	s := fresh()
	s.PerLayer = many(128, "ms")
	if err := s.validate(); err != nil {
		t.Errorf("128 layer metrics: %v", err)
	}
}

// TestSectionsMatchUsrepro keeps the in-process section list in step
// with the section(...) calls of cmd/usrepro/main.go, in order.
func TestSectionsMatchUsrepro(t *testing.T) {
	src, err := os.ReadFile("../cmd/usrepro/main.go")
	if err != nil {
		t.Fatal(err)
	}
	calls := regexp.MustCompile(`section\("(E\d+)", "([^"]*)"\)`).FindAllStringSubmatch(string(src), -1)
	if len(calls) != len(sections) {
		t.Fatalf("usrepro has %d sections, the ledger %d", len(calls), len(sections))
	}
	for i, c := range calls {
		if c[1] != sections[i].id || c[2] != sections[i].title {
			t.Errorf("section %d: usrepro %s %q, ledger %s %q", i, c[1], c[2], sections[i].id, sections[i].title)
		}
	}
	if !strings.Contains(string(src), fmt.Sprintf("%q", strings.SplitN(reproHeader, "\n", 2)[0])) {
		t.Error("usrepro's header line changed")
	}
}
