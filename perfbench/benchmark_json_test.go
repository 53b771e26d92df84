package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON keeps the metric names and units the
// result line carries equal to the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ name, unit string }, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: code has %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
	}
}
