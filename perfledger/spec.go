package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// spec is BENCHMARK.json: the workloads, the end-to-end metrics with
// the bound by which each may worsen before a change counts as a
// regression, and the per-layer metrics of the traced run.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// maxPhaseSeconds caps one measured phase; a run is a few phases plus
// set-up, and the whole ledger must finish in under an hour.
const maxPhaseSeconds = 30

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// validate checks the limits the ledger's consumers rely on: name and
// unit character sets, metric counts, one set-up metric, bounds, and a
// measured phase short enough to keep the full ledger under an hour.
func (s *spec) validate() error {
	if len(s.Paths) < 1 || len(s.Paths) > 16 {
		return fmt.Errorf("paths: want 1 to 16, got %d", len(s.Paths))
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' || bytes.Contains([]byte(p), []byte("..")) {
			return fmt.Errorf("paths: bad path %q", p)
		}
	}
	if len(s.Command) < 1 || len(s.Command) > 32 {
		return fmt.Errorf("command: want 1 to 32 strings, got %d", len(s.Command))
	}
	if s.RunSeconds < 1 || s.RunSeconds > maxPhaseSeconds {
		return fmt.Errorf("run_seconds: want 1 to %d, got %d", maxPhaseSeconds, s.RunSeconds)
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		return fmt.Errorf("workloads: want 2 to 8, got %d", len(s.Workloads))
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		return fmt.Errorf("end_to_end: want 1 to 16 metrics, got %d", len(s.EndToEnd))
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		return fmt.Errorf("per_layer: want 1 to 128 metrics, got %d", len(s.PerLayer))
	}
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s: bad name %q", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("%s: name %q used twice", kind, n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name("workloads", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			return fmt.Errorf("workloads: %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		if err := name("end_to_end", m.Name); err != nil {
			return err
		}
		if err := metricShape(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("end_to_end: %s: bound must be in (0, 0.25], got %g", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			if m.Unit != "s" || m.Better != "lower" {
				return fmt.Errorf("end_to_end: setup_s must be in s, lower is better")
			}
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("end_to_end: setup_s is required")
	}
	for _, m := range s.PerLayer {
		if err := name("per_layer", m.Name); err != nil {
			return err
		}
		if err := metricShape(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}

func metricShape(name, unit, better string) error {
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("%s: bad unit %q", name, unit)
	}
	if better != "lower" && better != "higher" {
		return fmt.Errorf("%s: better must be lower or higher, got %q", name, better)
	}
	return nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
