package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}, {10, 1.4},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Three windows of 4; the middle one is a stall. Window p50s are
	// 1.5, 100.5 and 2.5; their median ignores the stall. The trailing
	// single sample is under half a window and is dropped.
	xs := []float64{1, 2, 1, 2, 100, 101, 100, 101, 2, 3, 2, 3, 999}
	got, n := windowedPercentile(xs, 4, 50)
	if got != 2.5 || n != 3 {
		t.Errorf("windowed p50 = %v over %d windows, want 2.5 over 3", got, n)
	}
	if got, n := windowedPercentile([]float64{5, 1, 3}, 10, 50); got != 3 || n != 1 {
		t.Errorf("short input = %v over %d windows, want the plain median 3 over 1", got, n)
	}
}

func TestFailureShareAndRatio(t *testing.T) {
	if got := failureShare(0, 0); got != 0 {
		t.Errorf("nothing attempted: %v", got)
	}
	if got := failureShare(200, 3); got != 0.015 {
		t.Errorf("3 of 200 = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over 0 = %v", got)
	}
}

func TestResultCorrect(t *testing.T) {
	r := newResult()
	if r.correct() {
		t.Error("a result with no checks must not count as correct")
	}
	r.gate("a", true, "")
	if !r.correct() {
		t.Error("all checks passed")
	}
	r.failed = 1
	if r.correct() {
		t.Error("a failed operation must fail the run")
	}
	r.failed = 0
	r.gate("b", false, "")
	if r.correct() {
		t.Error("a failed check must fail the run")
	}
}

func TestUntilBudget(t *testing.T) {
	start := time.Now()
	if !untilBudget(start, time.Second, time.Hour, 0) {
		t.Error("the first iteration always runs")
	}
	if untilBudget(start, time.Second, 2*time.Second, 1) {
		t.Error("an iteration longer than the remaining budget must not start")
	}
	if !untilBudget(start, time.Minute, time.Millisecond, 5) {
		t.Error("a short iteration fits")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names and units the
// program prints in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
