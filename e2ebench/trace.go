package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark timed around a call into the program.
// Spans of one training step share the step number as ID; spans of one
// served request share the request number.
type span struct {
	Name string `json:"name"`
	// Layer names the network layer a layer span covers ("" otherwise).
	Layer  string `json:"layer,omitempty"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Safe for concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(when time.Time) int64 { return when.Sub(t.origin).Nanoseconds() }

// begin opens a span now and returns its index, which end closes and
// children name as their parent.
func (t *tracer) begin(name, layer string, id int64, parent int) int {
	return t.add(span{Name: name, Layer: layer, ID: id, Parent: parent, Start: t.at(time.Now())})
}

// end closes span i now.
func (t *tracer) end(i int) {
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose bounds the caller already knows.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// spanAt returns span i.
func (t *tracer) spanAt(i int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i]
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children are clipped to the parent's
// interval and overlapping children count once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			if open && v.lo <= curHi {
				if v.hi > curHi {
					curHi = v.hi
				}
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = v.lo, v.hi, true
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time in ms per span name.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += ms(time.Duration(d))
	}
	return out
}

// writeSpans writes spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
