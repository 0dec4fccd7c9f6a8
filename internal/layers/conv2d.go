package layers

import (
	"fmt"
	"runtime"

	"ndsnn/internal/metrics"
	"ndsnn/internal/rng"
	"ndsnn/internal/sparse"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
)

// Conv2d is a 2-D convolution over [B,C,H,W] inputs with square kernels,
// symmetric zero padding and an im2col/GEMM implementation parallelized
// across the batch.
type Conv2d struct {
	InC, OutC, K, Stride, Pad int

	// Weight has shape [OutC, InC, K, K]; Bias (optional) has shape [OutC].
	Weight *Param
	Bias   *Param

	// xs is the layer's BPTT tape: per-timestep inputs, event-encoded when
	// they are binary spike tensors (see package tape). Backward replays it.
	xs     tape.Stack
	events eventTally
	grad   gradStage
}

// NewConv2d constructs a convolution layer with Kaiming-normal weights.
// When withBias is false the layer has no bias term (the usual choice when a
// BatchNorm follows).
func NewConv2d(name string, inC, outC, k, stride, pad int, withBias bool, r *rng.RNG) *Conv2d {
	w := tensor.New(outC, inC, k, k)
	KaimingNormal(w, inC*k*k, r)
	l := &Conv2d{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		Weight: NewParam(name+".w", w),
	}
	if withBias {
		l.Bias = NewParam(name+".b", tensor.New(outC))
		l.Bias.NoDecay = true
		l.Bias.NoPrune = true
	}
	return l
}

// convScratch bundles the per-worker buffers of the im2col/GEMM loop.
type convScratch struct {
	col     []float32
	colT    *tensor.Tensor
	rowPtr  []int32
	evIdx   []int32
	colSeen []bool
}

func newConvScratch(ckk, p int, withEvents bool) *convScratch {
	s := &convScratch{col: make([]float32, ckk*p)}
	s.colT = tensor.FromSlice(s.col, ckk, p)
	if withEvents {
		s.rowPtr = make([]int32, ckk+1)
		s.colSeen = make([]bool, p)
	}
	return s
}

func (l *Conv2d) geometry(x *tensor.Tensor) (b, c, h, w, oh, ow, p, ckk int) {
	b, c, h, w = x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c != l.InC {
		panic(fmt.Sprintf("layers: %s expects %d input channels, got %d", l.Weight.Name, l.InC, c))
	}
	oh = tensor.ConvOutSize(h, l.K, l.Stride, l.Pad)
	ow = tensor.ConvOutSize(w, l.K, l.Stride, l.Pad)
	p = oh * ow
	ckk = c * l.K * l.K
	return
}

// forwardSample runs one sample-timestep's GEMM into yb (shape [OutC, p]),
// choosing between the event-driven, weight-only CSR and dense paths exactly
// as documented on Forward, and adds the bias. A non-nil wbands routes the
// event path through the banded parallel kernel (sparse.Workers > 1);
// outputs are bit-identical either way.
func (l *Conv2d) forwardSample(yb *tensor.Tensor, src []float32, c, h, w, oh, ow int,
	wmat *tensor.Tensor, wcsr *sparse.CSR, wcsc *sparse.CSC, wbands *sparse.CSCBands, s *convScratch,
	tally *metrics.EventStats, maxRate float64) {
	p := oh * ow
	tally.Forwards++
	if wcsr == nil {
		tensor.Im2Col(s.col, src, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
		tensor.MatMulSerialInto(yb, wmat, s.colT, false)
	} else {
		var binary bool
		s.evIdx, binary = tensor.Im2ColEvents(s.col, src, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow, s.rowPtr, s.evIdx[:0])
		ev := sparse.Events{Rows: c * l.K * l.K, Cols: p, RowPtr: s.rowPtr, ColIdx: s.evIdx}
		if !binary || !eventForward(yb, &ev, wcsc, wbands, s.colSeen, tally, maxRate) {
			sparse.CSRMatMulSerialInto(yb, wcsr, s.colT, false)
		}
	}
	l.addBias(yb, p)
}

// eventForward tallies one binary sample-timestep's im2col pattern ev and,
// when its occupancy is at most maxRate, computes yb = W·ev on the event
// kernel (banded when wbands is non-nil). It reports whether it did; if not,
// the caller runs the weight-only CSR GEMM. maxRate > 0 keeps the documented
// kill switch honest: at 0, even all-zero (occupancy 0) inputs stay on the
// weight-only path.
func eventForward(yb *tensor.Tensor, ev *sparse.Events, wcsc *sparse.CSC, wbands *sparse.CSCBands,
	seen []bool, tally *metrics.EventStats, maxRate float64) bool {
	tallyEvents(tally, ev, seen)
	if maxRate <= 0 || ev.Occupancy() > maxRate {
		return false
	}
	if wbands != nil {
		sparse.CSCMatMulEventsInto(yb, wbands, ev, false)
	} else {
		sparse.CSCMatMulEventsSerialInto(yb, wcsc, ev, false)
	}
	tally.EventForwards++
	return true
}

// tallyEvents adds one binary sample-timestep's im2col pattern to the
// occupancy counters.
func tallyEvents(tally *metrics.EventStats, ev *sparse.Events, seen []bool) {
	tally.Entries += int64(ev.Rows * ev.Cols)
	tally.ActiveEntries += int64(ev.NNZ())
	tally.Cols += int64(ev.Cols)
	tally.ActiveCols += countActiveCols(ev.ColIdx, seen)
}

func (l *Conv2d) addBias(yb *tensor.Tensor, p int) {
	if l.Bias == nil {
		return
	}
	for f := 0; f < l.OutC; f++ {
		bv := l.Bias.W.Data[f]
		row := yb.Data[f*p : (f+1)*p]
		for j := range row {
			row[j] += bv
		}
	}
}

// Forward computes one timestep of the convolution.
//
// When the weight is CSR-encoded and the input turns out to be a binary
// spike tensor (detected while building the im2col expansion), the forward
// takes the dual-sparse event-driven kernel: work scales with
// weightDensity × spikeOccupancy instead of weightDensity alone. Inputs
// whose occupancy exceeds EventMaxRate, or that contain analog values (the
// first layer under direct encoding, or post-BatchNorm currents), fall back
// to the weight-only CSR or dense GEMM path. All three paths produce
// bit-identical outputs.
//
// During training the input is recorded on the layer's tape — event-encoded
// when binary — and Backward replays it.
func (l *Conv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b, c, h, w, oh, ow, p, ckk := l.geometry(x)
	out := tensor.New(b, l.OutC, oh, ow)
	wmat := l.Weight.W.Reshape(l.OutC, ckk)
	wcsr := l.Weight.SparseW()
	var wcsc *sparse.CSC
	var wbands *sparse.CSCBands
	if wcsr != nil {
		// The event kernel wants column-compressed weights (spikes select
		// weight columns); gathered once here, shared read-only by workers.
		// Batches too narrow to fill sparse.Workers batch-parallel lanes
		// take the row-banded bucketing instead: the per-sample event GEMM
		// itself fans out (bit-identical results). Wide batches already
		// saturate the host, so they skip the banded gather entirely.
		if b < sparse.EffectiveWorkers(l.OutC) {
			wbands = l.Weight.SparseWCSCBands()
		}
		if wbands == nil {
			wcsc = l.Weight.SparseWCSC()
		}
	}
	maxRate := EventMaxRate
	tensor.ParallelFor(b, l.OutC*ckk*p, func(lo, hi int) {
		s := newConvScratch(ckk, p, wcsr != nil)
		var tally metrics.EventStats
		for bi := lo; bi < hi; bi++ {
			src := x.Data[bi*c*h*w : (bi+1)*c*h*w]
			yb := tensor.FromSlice(out.Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
			l.forwardSample(yb, src, c, h, w, oh, ow, wmat, wcsr, wcsc, wbands, s, &tally, maxRate)
		}
		l.events.add(tally)
	})
	if train {
		l.xs.Push(x)
	}
	return out
}

// ForwardSeq is the time-major fast path: it processes all T timesteps of a
// batch in one call. When the weight is CSR-encoded and a sample's inputs
// are binary across every timestep (with fused occupancy at most
// EventMaxRate), the T event patterns are merged with sparse.FuseTimesteps
// and a single CSCMatMulEventsSerialInto computes all T products in one
// traversal of the weight matrix — the batched-timestep GEMM, end-to-end.
// Binary samples above the fused rate make the per-timestep decisions
// Forward makes on the patterns already built (one pattern build per
// timestep); samples with an analog timestep run Forward's path. Outputs
// and EventStats are identical to T Forward calls, and the tape records the
// same per-timestep entries.
func (l *Conv2d) ForwardSeq(xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	T := len(xs)
	if T == 0 {
		return nil
	}
	wcsr := l.Weight.SparseW()
	if wcsr == nil || T == 1 {
		// No fusion opportunity: drive the per-timestep path.
		outs := make([]*tensor.Tensor, T)
		for t, x := range xs {
			outs[t] = l.Forward(x, train)
		}
		return outs
	}
	b, c, h, w, oh, ow, p, ckk := l.geometry(xs[0])
	for _, x := range xs[1:] {
		if !x.SameShape(xs[0]) {
			panic(fmt.Sprintf("layers: %s ForwardSeq timestep shapes diverge: %v vs %v", l.Weight.Name, x.Shape(), xs[0].Shape()))
		}
	}
	wmat := l.Weight.W.Reshape(l.OutC, ckk)
	// Same narrow-batch gate as Forward: kernel-level fan-out only when the
	// batch dimension cannot fill the workers on its own.
	var wbands *sparse.CSCBands
	if b < sparse.EffectiveWorkers(l.OutC) {
		wbands = l.Weight.SparseWCSCBands()
	}
	var wcsc *sparse.CSC
	if wbands == nil {
		wcsc = l.Weight.SparseWCSC()
	}
	outs := make([]*tensor.Tensor, T)
	for t := range outs {
		outs[t] = tensor.New(b, l.OutC, oh, ow)
	}
	maxRate := EventMaxRate
	chw := c * h * w
	tensor.ParallelFor(b, T*l.OutC*ckk*p, func(lo, hi int) {
		s := newConvScratch(ckk, p, true)
		// Per-timestep pattern buffers, reused across samples; the fused call
		// needs all T patterns alive at once.
		rowPtrs := make([][]int32, T)
		evIdxs := make([][]int32, T)
		evs := make([]*sparse.Events, T)
		for t := range rowPtrs {
			rowPtrs[t] = make([]int32, ckk+1)
		}
		var flat []int32
		ybuf := tensor.New(l.OutC, T*p)
		var tally metrics.EventStats
		for bi := lo; bi < hi; bi++ {
			// Pass 1: extract every timestep's event pattern straight from
			// the input (O(chw + K²·nnz) — the fused kernel never reads a
			// dense column matrix); abandon fusion on the first analog
			// timestep.
			fusable := true
			totalNNZ := 0
			for t := 0; t < T; t++ {
				src := xs[t].Data[bi*chw : (bi+1)*chw]
				flat = flat[:0]
				for i, v := range src {
					if v == 0 {
						continue
					}
					if v != 1 {
						fusable = false
						break
					}
					flat = append(flat, int32(i))
				}
				if !fusable {
					break
				}
				evIdxs[t] = tensor.Im2ColPatternFromEvents(flat, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow, rowPtrs[t], evIdxs[t][:0])
				evs[t] = &sparse.Events{Rows: ckk, Cols: p, RowPtr: rowPtrs[t], ColIdx: evIdxs[t]}
				totalNNZ += evs[t].NNZ()
			}
			occ := float64(totalNNZ) / float64(T*ckk*p)
			if fusable && maxRate > 0 && occ <= maxRate {
				for t := 0; t < T; t++ {
					tally.Forwards++
					tally.EventForwards++
					tallyEvents(&tally, evs[t], s.colSeen)
				}
				fused := sparse.FuseTimesteps(evs)
				if wbands != nil {
					sparse.CSCMatMulEventsInto(ybuf, wbands, fused, false)
				} else {
					sparse.CSCMatMulEventsSerialInto(ybuf, wcsc, fused, false)
				}
				// Timestep t's output is ybuf[:, t·p:(t+1)·p].
				for t := 0; t < T; t++ {
					yb := tensor.FromSlice(outs[t].Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
					for f := 0; f < l.OutC; f++ {
						copy(yb.Data[f*p:(f+1)*p], ybuf.Data[f*T*p+t*p:f*T*p+(t+1)*p])
					}
					l.addBias(yb, p)
				}
			} else if fusable {
				// Binary but too busy to fuse: Forward's per-timestep
				// decisions, made on the pass-1 patterns. Only timesteps
				// above the rate expand a column matrix, for the CSR GEMM.
				for t := 0; t < T; t++ {
					yb := tensor.FromSlice(outs[t].Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
					tally.Forwards++
					if !eventForward(yb, evs[t], wcsc, wbands, s.colSeen, &tally, maxRate) {
						tensor.Im2Col(s.col, xs[t].Data[bi*chw:(bi+1)*chw], c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
						sparse.CSRMatMulSerialInto(yb, wcsr, s.colT, false)
					}
					l.addBias(yb, p)
				}
			} else {
				// Analog sample: Forward's per-timestep path.
				for t := 0; t < T; t++ {
					src := xs[t].Data[bi*chw : (bi+1)*chw]
					yb := tensor.FromSlice(outs[t].Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
					l.forwardSample(yb, src, c, h, w, oh, ow, wmat, wcsr, wcsc, wbands, s, &tally, maxRate)
				}
			}
		}
		l.events.add(tally)
	})
	if train {
		for _, x := range xs {
			l.xs.Push(x)
		}
	}
	return outs
}

// countActiveCols counts the distinct column indices in evIdx, using seen as
// scratch (reset on entry; must cover every index in evIdx).
func countActiveCols(evIdx []int32, seen []bool) int64 {
	for j := range seen {
		seen[j] = false
	}
	var n int64
	for _, j := range evIdx {
		if !seen[j] {
			seen[j] = true
			n++
		}
	}
	return n
}

// EventStats returns the event-driven fast-path counters accumulated since
// the last ResetEventStats.
func (l *Conv2d) EventStats() metrics.EventStats { return l.events.snapshot() }

// ResetEventStats zeroes the event-path counters.
func (l *Conv2d) ResetEventStats() { l.events.reset() }

// gradStageFloats bounds a conv layer's per-sample gradient staging buffer
// (see parallelGrad): a backward call stages up to this many floats of
// per-sample parts at once, and always at least one sample per worker. The
// layer keeps the buffer between calls, so it retains at most
// max(gradStageFloats, GOMAXPROCS × per-sample part) floats.
const gradStageFloats = 1 << 20

// gradStage is a conv layer's reusable backward reduction buffer: per-sample
// gradient parts and the running per-element sums they fold into.
type gradStage struct {
	parts, acc []float32
}

// gradDst is where one sample's weight-gradient contribution goes: a dense
// dW tensor, or pattern-aligned SDDMM vals when sparseGrad, plus a bias
// slice when the layer has one (nil otherwise). With add set they are the
// running accumulator and the sample adds into them; otherwise they are the
// sample's staged part, which the sample overwrites (dense dW and bias) or
// adds into from zero (vals: the SDDMM kernels touch only some positions).
type gradDst struct {
	dw       *tensor.Tensor
	vals, db []float32
	add      bool
}

// parallelGrad is the shared batch-partition/gradient-reduction scaffolding
// of the backward paths. body processes samples [lo,hi) — the partition
// follows GOMAXPROCS — and writes each sample bi's weight-gradient
// contribution sᵢ to dst(bi). Every element must sum its samples in
// ascending order from zero, acc = ((0+s₀)+s₁)+…, and then Grad += acc:
// exactly the order a single worker accumulates in, so weight and bias
// gradients are bit-identical at any GOMAXPROCS. The chunk that starts a
// group of samples adds straight into acc; every other sample stages its
// part, and after the chunks finish the parts fold into acc per element in
// sample order (acc is never −0, so a part holding sᵢ or 0+sᵢ folds the
// same). Groups are bounded by gradStageFloats; neither the grouping nor the
// chunking changes any element's order.
func (l *Conv2d) parallelGrad(b, ckk, work int, wcsr *sparse.CSR, sparseGrad bool,
	body func(lo, hi int, dst func(bi int) gradDst)) {
	n := l.OutC * ckk
	if sparseGrad {
		n = wcsr.NNZ()
	}
	nb := 0
	if l.Bias != nil {
		nb = l.OutC
	}
	per := n + nb
	group := gradStageFloats / max(per, 1)
	if procs := runtime.GOMAXPROCS(0); group < procs {
		group = procs
	}
	if group > b {
		group = b
	}
	st := &l.grad
	if cap(st.parts) < group*per {
		st.parts = make([]float32, group*per)
	}
	if cap(st.acc) < per {
		st.acc = make([]float32, per)
	}
	acc := st.acc[:per]
	clear(acc)
	into := gradDst{add: true}
	if sparseGrad {
		into.vals = acc[:n]
	} else {
		into.dw = tensor.FromSlice(acc[:n], l.OutC, ckk)
	}
	if nb > 0 {
		into.db = acc[n:]
	}
	toAcc := func(int) gradDst { return into }
	for g0 := 0; g0 < b; g0 += group {
		g1 := min(g0+group, b)
		parts := st.parts[:(g1-g0)*per]
		toPart := func(bi int) gradDst {
			seg := parts[(bi-g0)*per : (bi-g0+1)*per]
			var d gradDst
			if sparseGrad {
				d.vals = seg[:n]
				clear(d.vals)
			} else {
				d.dw = tensor.FromSlice(seg[:n], l.OutC, ckk)
			}
			if nb > 0 {
				d.db = seg[n:]
			}
			return d
		}
		staged := g0 // samples [staged, g1) wrote parts
		tensor.ParallelFor(g1-g0, work, func(lo, hi int) {
			if lo == 0 {
				staged = g0 + hi
				body(g0, g0+hi, toAcc)
				return
			}
			body(g0+lo, g0+hi, toPart)
		})
		if staged == g1 {
			continue
		}
		// Element-parallel fold; every element still sums its samples in
		// ascending order.
		tensor.ParallelFor(per, g1-staged, func(lo, hi int) {
			dst := acc[lo:hi]
			for i := staged - g0; i < g1-g0; i++ {
				for j, v := range parts[i*per+lo : i*per+hi] {
					dst[j] += v
				}
			}
		})
	}
	if sparseGrad {
		sparse.AddValsInto(l.Weight.Grad.Reshape(l.OutC, ckk), wcsr, acc[:n])
	} else {
		gw := l.Weight.Grad.Data
		for j, v := range acc[:n] {
			gw[j] += v
		}
	}
	for f, v := range acc[n:] {
		l.Bias.Grad.Data[f] += v
	}
}

// Backward computes input gradients and accumulates weight/bias gradients
// for the most recent cached timestep, replaying the tape. An event-encoded
// record rebuilds the im2col event pattern straight from the recorded spikes
// and never expands a column matrix: with active-position-only gradients the
// weight gradient is the events SDDMM (CSRGradABTEventsInto), otherwise —
// the growth steps, which need every weight's gradient — it is
// dW[f,r] = Σ_{j∈ev(r)} dy[f,j] (GradABTEventsDenseInto), bit-identical to
// the dense GEMM over the decoded column matrix. Either way backward-weight
// work scales with spike occupancy like the forward pass. Dense records
// (analog inputs) expand with Im2Col for the dense-operand kernels.
func (l *Conv2d) Backward(dy *tensor.Tensor) *tensor.Tensor {
	rec := l.xs.Pop()
	shape := rec.Shape()
	b, c, h, w := shape[0], shape[1], shape[2], shape[3]
	oh, ow := dy.Dim(2), dy.Dim(3)
	p := oh * ow
	ckk := c * l.K * l.K
	chw := c * h * w
	dx := tensor.New(b, c, h, w)
	wmat := l.Weight.W.Reshape(l.OutC, ckk)
	wcsr := l.Weight.SparseW()
	xDense := rec.Dense()
	xEv := rec.Events()
	// dX always rides the CSR path when available; dW does so only when the
	// trainer has declared active-position-only gradients acceptable.
	sparseGrad := wcsr != nil && l.Weight.SparseGradOK
	// Kernel-level SDDMM fan-out pays off only when the batch partition
	// leaves workers idle; wide batches keep the serial per-sample kernels.
	kernelWorkers := 1
	if wcsr != nil && b < sparse.EffectiveWorkers(wcsr.Rows) {
		kernelWorkers = sparse.EffectiveWorkers(wcsr.Rows)
	}

	l.parallelGrad(b, ckk, l.OutC*ckk*p, wcsr, sparseGrad, func(lo, hi int, dst func(int) gradDst) {
		dcol := make([]float32, ckk*p)
		dcolT := tensor.FromSlice(dcol, ckk, p)
		var colT *tensor.Tensor
		var rowPtr, evIdx []int32
		if xEv != nil {
			rowPtr = make([]int32, ckk+1)
		} else {
			colT = tensor.New(ckk, p)
		}
		for bi := lo; bi < hi; bi++ {
			g := dst(bi)
			dyb := tensor.FromSlice(dy.Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
			if xEv != nil {
				// Replay: rebuild this sample's im2col event pattern straight
				// from the recorded input-space events — O(K²·nnz), no dense
				// expansion. kernelWorkers > 1 fans the SDDMM out over
				// nnz-balanced row blocks of the weight pattern (each vals[p]
				// is owned by one worker, bit-identical accumulation).
				flat := xEv.ColIdx[xEv.RowPtr[bi]:xEv.RowPtr[bi+1]]
				evIdx = tensor.Im2ColPatternFromEvents(flat, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow, rowPtr, evIdx[:0])
				ev := &sparse.Events{Rows: ckk, Cols: p, RowPtr: rowPtr, ColIdx: evIdx}
				if sparseGrad {
					sparse.CSRGradABTEventsInto(g.vals, wcsr, dyb, ev, kernelWorkers)
				} else {
					sparse.GradABTEventsDenseInto(g.dw, dyb, ev, g.add)
				}
			} else {
				tensor.Im2Col(colT.Data, xDense.Data[bi*chw:(bi+1)*chw], c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
				if sparseGrad {
					sparse.CSRGradABTInto(g.vals, wcsr, dyb, colT, kernelWorkers)
				} else {
					tensor.MatMulABTSerialInto(g.dw, dyb, colT, g.add)
				}
			}
			if wcsr != nil {
				sparse.CSRMatMulATBSerialInto(dcolT, wcsr, dyb, false)
			} else {
				tensor.MatMulATBSerialInto(dcolT, wmat, dyb, false)
			}
			tensor.Col2Im(dx.Data[bi*chw:(bi+1)*chw], dcol, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
			if g.db != nil {
				for f := 0; f < l.OutC; f++ {
					var s float32
					for _, v := range dyb.Data[f*p : (f+1)*p] {
						s += v
					}
					if g.add {
						g.db[f] += s
					} else {
						g.db[f] = s
					}
				}
			}
		}
	})
	return dx
}

// BackwardSeq consumes all T timestep gradients at once — the time-major
// backward replay. When every recorded timestep is event-encoded, the weight
// is CSR and active-position-only gradients are armed, the T im2col event
// patterns are rebuilt straight from the tape, merged by FuseTimesteps, and
// consumed by ONE events SDDMM against the column-concatenated dy — and
// backward-data likewise pays a single weight traversal for all T timesteps.
// The per-position pattern overhead and the CSR index loads amortize by T,
// which is where the tape's backward speedup lives. Anything else falls back
// to T Backward calls in reverse order. Input gradients are bit-identical to
// the step-major replay; weight/bias gradients accumulate the timesteps in
// ascending instead of descending order (float rounding only).
func (l *Conv2d) BackwardSeq(dys []*tensor.Tensor) []*tensor.Tensor {
	T := len(dys)
	wcsr := l.Weight.SparseW()
	fused := T > 1 && wcsr != nil && l.Weight.SparseGradOK && l.xs.Len() >= T
	if fused {
		for i := 0; i < T; i++ {
			if !l.xs.Peek(i).IsEvents() {
				fused = false
				break
			}
		}
	}
	if !fused {
		dxs := make([]*tensor.Tensor, T)
		for t := T - 1; t >= 0; t-- {
			dxs[t] = l.Backward(dys[t])
		}
		return dxs
	}
	recs := make([]*sparse.Events, T)
	var shape []int
	for t := T - 1; t >= 0; t-- {
		rec := l.xs.Pop()
		recs[t] = rec.Events()
		shape = rec.Shape()
	}
	b, c, h, w := shape[0], shape[1], shape[2], shape[3]
	oh, ow := dys[0].Dim(2), dys[0].Dim(3)
	p := oh * ow
	ckk := c * l.K * l.K
	chw := c * h * w
	dxs := make([]*tensor.Tensor, T)
	for t := range dxs {
		dxs[t] = tensor.New(b, c, h, w)
	}
	// Kernel-level SDDMM fan-out only when the batch partition leaves
	// workers idle, as in Backward.
	kernelWorkers := 1
	if b < sparse.EffectiveWorkers(wcsr.Rows) {
		kernelWorkers = sparse.EffectiveWorkers(wcsr.Rows)
	}

	l.parallelGrad(b, ckk, T*l.OutC*ckk*p, wcsr, true, func(lo, hi int, dst func(int) gradDst) {
		rowPtrs := make([][]int32, T)
		evIdxs := make([][]int32, T)
		evs := make([]*sparse.Events, T)
		for t := range rowPtrs {
			rowPtrs[t] = make([]int32, ckk+1)
		}
		dyF := tensor.New(l.OutC, T*p)
		dcolF := tensor.New(ckk, T*p)
		dcol := make([]float32, ckk*p)
		for bi := lo; bi < hi; bi++ {
			g := dst(bi)
			for t := 0; t < T; t++ {
				flat := recs[t].ColIdx[recs[t].RowPtr[bi]:recs[t].RowPtr[bi+1]]
				evIdxs[t] = tensor.Im2ColPatternFromEvents(flat, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow, rowPtrs[t], evIdxs[t][:0])
				evs[t] = &sparse.Events{Rows: ckk, Cols: p, RowPtr: rowPtrs[t], ColIdx: evIdxs[t]}
				// Column-concatenate the timestep gradients: dyF[f] holds
				// [t0 | t1 | …], matching the fused pattern's layout.
				src := dys[t].Data[bi*l.OutC*p : (bi+1)*l.OutC*p]
				for f := 0; f < l.OutC; f++ {
					copy(dyF.Data[f*T*p+t*p:f*T*p+(t+1)*p], src[f*p:(f+1)*p])
				}
			}
			evF := sparse.FuseTimesteps(evs)
			sparse.CSRGradABTEventsInto(g.vals, wcsr, dyF, evF, kernelWorkers)
			sparse.CSRMatMulATBSerialInto(dcolF, wcsr, dyF, false)
			for t := 0; t < T; t++ {
				for cc := 0; cc < ckk; cc++ {
					copy(dcol[cc*p:(cc+1)*p], dcolF.Data[cc*T*p+t*p:cc*T*p+(t+1)*p])
				}
				tensor.Col2Im(dxs[t].Data[bi*chw:(bi+1)*chw], dcol, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
			}
			if g.db != nil {
				for f := 0; f < l.OutC; f++ {
					var s float32
					for _, v := range dyF.Data[f*T*p : (f+1)*T*p] {
						s += v
					}
					if g.add {
						g.db[f] += s
					} else {
						g.db[f] = s
					}
				}
			}
		}
	})
	return dxs
}

// Params returns the weight and optional bias.
func (l *Conv2d) Params() []*Param {
	if l.Bias != nil {
		return []*Param{l.Weight, l.Bias}
	}
	return []*Param{l.Weight}
}

// Reset drops cached timesteps.
func (l *Conv2d) Reset() { l.xs.Clear() }
