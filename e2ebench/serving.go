package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndsnn/internal/data"
	"ndsnn/internal/infer"
	"ndsnn/internal/rng"
	"ndsnn/internal/serve"
	"ndsnn/internal/snn"
	"ndsnn/internal/tensor"
)

// servable is a compiled model with the request samples the load
// generators draw from and each sample's serial Engine.Infer output.
type servable struct {
	eng     *infer.Engine
	samples []*tensor.Tensor
	ref     [][]float32
}

// newServable compiles net to the float32 engine and computes the serial
// reference output of the first samplePool test images.
func newServable(net *snn.Network, ds *data.Dataset) (*servable, error) {
	eng, err := infer.Compile(net)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	n := samplePool
	if ds.Test.N() < n {
		n = ds.Test.N()
	}
	c, h, w := ds.Config.C, ds.Config.H, ds.Config.W
	pix := c * h * w
	sv := &servable{eng: eng, samples: make([]*tensor.Tensor, n), ref: make([][]float32, n)}
	for i := range sv.samples {
		sv.samples[i] = tensor.FromSlice(ds.Test.Images[i*pix:(i+1)*pix], c, h, w)
		sv.ref[i] = eng.Infer(sv.samples[i])
	}
	return sv, nil
}

// sameBits reports whether two score vectors are bit-identical.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// drained is a server's final counters after Drain.
type drained struct {
	stats serve.Stats
	clean bool
}

// conserved is the serving correctness gate: after drain every admitted
// request resolved exactly once.
func (d drained) conserved() bool { return d.clean && d.stats.Admitted == d.stats.Resolved() }

func drain(srv *serve.Server) drained {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res := srv.Drain(ctx)
	return drained{stats: srv.Stats(), clean: res.Clean}
}

func isRefusal(err error) bool { return errors.Is(err, serve.ErrOverloaded) }

// openWindow sends n Poisson arrivals at rate per second to srv from a
// single generator goroutine, each request on its own goroutine so that a
// slow answer never delays the schedule. Arrival times and samples come from
// seed alone; requests carry no deadline. It returns when every request has
// been answered.
func openWindow(srv *serve.Server, sv *servable, rate float64, n int, seed uint64) ([]request, time.Time) {
	r := rng.New(seed)
	dues := make([]time.Duration, n)
	picks := make([]int, n)
	t := 0.0
	for k := range dues {
		t += -math.Log(1-r.Float64()) / rate
		dues[k] = time.Duration(t * float64(time.Second))
		picks[k] = r.Intn(len(sv.samples))
	}
	reqs := make([]request, n)
	var wg sync.WaitGroup
	start := time.Now()
	for k, due := range dues {
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		reqs[k].due = due
		reqs[k].sent = time.Since(start)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			i := picks[k]
			scores, err := srv.Infer(context.Background(), sv.samples[i])
			reqs[k].done = time.Since(start)
			reqs[k].err = err
			reqs[k].correct = err == nil && sameBits(scores, sv.ref[i])
		}(k)
	}
	wg.Wait()
	return reqs, start
}

// addRequestSpans records each request as a span from its due time to its
// answer, with the serve.Infer call (from when it was actually sent) as its
// child; ids continue from first.
func addRequestSpans(tr *tracer, reqs []request, start time.Time, first int64) {
	base := tr.at(start)
	for k, r := range reqs {
		id := first + int64(k)
		p := tr.add(span{Name: "request", ID: id, Parent: -1,
			Start: base + r.due.Nanoseconds(), End: base + r.done.Nanoseconds()})
		tr.add(span{Name: "serve.Infer", ID: id, Parent: p,
			Start: base + r.sent.Nanoseconds(), End: base + r.done.Nanoseconds()})
	}
}

// closedWindow is one closed-loop window's outcome.
type closedWindow struct {
	answered, wrong, errs int64
	elapsed               time.Duration
}

func (c closedWindow) capacity() float64 { return float64(c.answered) / c.elapsed.Seconds() }

// runClosedWindow runs clients that each send their next request as soon as
// the previous one is answered, for dur.
func runClosedWindow(srv *serve.Server, sv *servable, clients int, dur time.Duration, seed uint64) closedWindow {
	var answered, wrong, errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(seed + uint64(c))
			for time.Since(start) < dur {
				i := r.Intn(len(sv.samples))
				scores, err := srv.Infer(context.Background(), sv.samples[i])
				switch {
				case err != nil:
					errs.Add(1)
				case !sameBits(scores, sv.ref[i]):
					wrong.Add(1)
				default:
					answered.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return closedWindow{
		answered: answered.Load(), wrong: wrong.Load(), errs: errs.Load(),
		elapsed: time.Since(start),
	}
}

// engineProbe is the traced run's direct measurement of the engine: the
// per-stage breakdown of InferBatchTraced, and InferBatch and Infer timed
// from outside.
type engineProbe struct {
	// stageMs is ms per sample per stage group.
	stageMs      map[string]float64
	sampleMs     float64
	batchMs      float64 // InferBatch wall time per sample
	synOpsSample float64
	wrong        int
}

// stageGroup maps an engine stage span name ("00_conv", "01_lif", ...) to
// its per-layer metric group; stages before the first spiking stage form the
// prefix.
func stageGroup(name string, prefix bool) string {
	kind := name
	if i := strings.IndexByte(name, '_'); i >= 0 {
		kind = name[i+1:]
	}
	if prefix {
		return "infer.prefix"
	}
	switch kind {
	case "conv":
		return "infer.conv"
	case "lif":
		return "infer.lif"
	case "maxpool", "avgpool", "flatten":
		return "infer.pool"
	case "linear":
		return "infer.linear"
	default:
		return "infer.other"
	}
}

func isSpikingStage(name string) bool { return strings.HasSuffix(name, "_lif") }

// probeEngine runs rounds of one traced batch, one untraced batch and one
// single-sample request. The engine must have telemetry enabled, or the
// traced batches carry no stage spans.
func probeEngine(sv *servable, rounds int, tr *tracer) engineProbe {
	batch := sv.samples[:probeBatch]
	var pt infer.PassTrace
	totals := map[string]int64{}
	var sampleMs, batchMs []float64
	p := engineProbe{stageMs: map[string]float64{}}
	sv.eng.ResetStats()
	for r := 0; r < rounds; r++ {
		sp := tr.begin("infer.batch_traced", "", int64(r), -1)
		outs := sv.eng.InferBatchTraced(batch, &pt)
		tr.end(sp)
		base := tr.spanAt(sp).Start
		prefix := true
		for _, s := range pt.Spans {
			if isSpikingStage(s.Name) {
				prefix = false
			}
			totals[stageGroup(s.Name, prefix)] += s.DurNs
			tr.add(span{Name: "infer.stage", Layer: s.Name, ID: int64(r), Parent: sp,
				Start: base + s.StartNs, End: base + s.StartNs + s.DurNs})
		}
		for i, o := range outs {
			if !sameBits(o, sv.ref[i]) {
				p.wrong++
			}
		}

		sp = tr.begin("infer.InferBatch", "", int64(r), -1)
		t0 := time.Now()
		outs = sv.eng.InferBatch(batch)
		batchMs = append(batchMs, ms(time.Since(t0))/float64(len(batch)))
		tr.end(sp)
		for i, o := range outs {
			if !sameBits(o, sv.ref[i]) {
				p.wrong++
			}
		}

		i := r % len(sv.samples)
		sp = tr.begin("infer.Infer", "", int64(r), -1)
		t0 = time.Now()
		out := sv.eng.Infer(sv.samples[i])
		sampleMs = append(sampleMs, ms(time.Since(t0)))
		tr.end(sp)
		if !sameBits(out, sv.ref[i]) {
			p.wrong++
		}
	}
	for g, ns := range totals {
		p.stageMs[g] = ms(time.Duration(ns)) / float64(rounds*len(batch))
	}
	p.sampleMs = median(sampleMs)
	p.batchMs = median(batchMs)
	p.synOpsSample = float64(sv.eng.SynOps()) / float64(rounds*(2*len(batch)+1))
	return p
}
