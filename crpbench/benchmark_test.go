package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables
// the program prints in step: the same workloads, and the same metric names
// and units in the same order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("workloads %v, code has %v", got, want)
	}
	compare := func(kind string, js []struct{ Name, Unit string }, code []nameUnit) {
		if len(js) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(js), len(code))
			return
		}
		for i := range js {
			if js[i].Name != code[i].name || js[i].Unit != code[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, js[i].Name, js[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndUnits)
	compare("per_layer", spec.PerLayer, perLayerUnits)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQuantileAndSeeds(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
	if q := quantile(xs, 0.9); q < 3.69 || q > 3.71 {
		t.Errorf("p90 = %v, want 3.7", q)
	}
	if p90Reportable(99) || !p90Reportable(100) {
		t.Error("p90 needs exactly 100 samples for ten beyond it")
	}
	if splitmix(1, "a", 0) == splitmix(1, "b", 0) || splitmix(1, "a", 0) == splitmix(2, "a", 0) || splitmix(1, "a", 0) != splitmix(1, "a", 0) {
		t.Error("splitmix streams must be distinct and reproducible")
	}
	if splitmix(-7, "a", 3) < 0 {
		t.Error("derived seeds must be non-negative")
	}
}
