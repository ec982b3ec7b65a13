package main

import (
	"io"
	"testing"
)

func TestAgreeIsDirectionAware(t *testing.T) {
	sp := &spec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd: []e2eMetric{
			{Name: "op_ms", Better: "lower", Bound: 0.1},
			{Name: "throughput_per_s", Better: "higher", Bound: 0.1},
		},
	}
	set := func(opMs, perS float64) map[string][]result {
		r := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"op_ms": {Value: opMs}, "throughput_per_s": {Value: perS},
		}}
		return map[string][]result{"w": {r, r, r}}
	}
	a := set(10, 100)
	for _, tc := range []struct {
		name string
		b    map[string][]result
		ok   bool
	}{
		{"same", set(10, 100), true},
		{"worse within bound", set(10.9, 91), true},
		{"much better", set(5, 200), true},
		{"op_ms worse than bound", set(11.5, 100), false},
		{"throughput worse than bound", set(10, 85), false},
	} {
		ok, err := agree(io.Discard, sp, a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.ok {
			t.Errorf("%s: agree = %v, want %v", tc.name, ok, tc.ok)
		}
	}
	if _, err := agree(io.Discard, sp, set(0, 100), set(1, 100)); err == nil {
		t.Error("a zero median in set A was not an error")
	}
}
