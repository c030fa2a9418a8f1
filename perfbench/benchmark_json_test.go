package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCommand keeps BENCHMARK.json, at the
// repository root, in step with the workloads and metrics this command
// actually runs and prints.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], command %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	printed := map[string]value{}
	endToEnd(printed, []float64{1}, []sample{{wall: 1e9, outcome: Outcome{VirtualSeconds: 1}}}, &tally{attempted: 1})
	if len(b.EndToEnd) != len(printed) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(printed))
	}
	for _, m := range b.EndToEnd {
		if v, ok := printed[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: command prints %+v", m.Name, m.Unit, v)
		}
	}
}
