package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the workload and metric tables")

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchmarkJSON struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []map[string]string `json:"workloads"`
	EndToEnd   []benchmarkMetric   `json:"end_to_end"`
	PerLayer   []benchmarkMetric   `json:"per_layer"`
}

// runSeconds is how long one benchmark run measures.
const runSeconds = 60

func wantBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "e2ebench/run.sh"},
		Paths:      []string{"e2ebench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, map[string]string{"name": w.Name, "why": w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		b.EndToEnd = append(b.EndToEnd, benchmarkMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, benchmarkMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository root
// in step with the workload and metric tables the benchmark reports from.
// Run with -update to rewrite it.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(wantBenchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in workloads.go; run go test -run TestBenchmarkJSON -update")
	}
}
