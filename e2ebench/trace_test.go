package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	spans := []span{
		{Name: "step", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 25, End: 40},  // overlaps a: 10..40 covered once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the parent: 90..100
		{Name: "d", Parent: 1, Start: 12, End: 20},  // grandchild: only a loses it
		{Name: "e", Parent: 0, Start: 50, End: 50},  // empty
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 10, 20 - 8, 15, 30, 8, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	by := selfByName(spans)
	if by["step"] != ms(60) {
		t.Errorf("selfByName(step) = %v ms, want %v", by["step"], ms(60))
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("train.step", "", 7, -1)
	child := tr.begin("loss", "", 7, root)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].ID != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child %+v not inside parent %+v", spans[1], spans[0])
	}
	self := selfTimes(spans)
	if self[0] != (spans[0].End-spans[0].Start)-(spans[1].End-spans[1].Start) {
		t.Errorf("parent self time %d does not exclude its child", self[0])
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != len(spans) {
		t.Fatalf("wrote %d lines for %d spans", len(lines), len(spans))
	}
	for i, line := range lines {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		if s != spans[i] {
			t.Errorf("line %d = %+v, want %+v", i, s, spans[i])
		}
	}
}
