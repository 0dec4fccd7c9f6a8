package layers

import (
	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

// OracleBackward is Backward's former replay: an event-encoded record whose
// weight gradient must be dense (SparseGradOK unset, CSR or dense weights)
// is decoded into a scratch input, expanded with Im2Col, erased again, and
// multiplied by the dense GEMM dW += dy·colᵀ. Backward must match it bit for
// bit on weight, bias and input gradients.
func (l *Conv2d) OracleBackward(dy *tensor.Tensor) *tensor.Tensor {
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
	sparseGrad := wcsr != nil && l.Weight.SparseGradOK
	kernelWorkers := 1
	if wcsr != nil && b < sparse.EffectiveWorkers(wcsr.Rows) {
		kernelWorkers = sparse.EffectiveWorkers(wcsr.Rows)
	}

	l.parallelGrad(b, ckk, l.OutC*ckk*p, wcsr, sparseGrad, func(lo, hi int, dst func(int) gradDst) {
		col := make([]float32, ckk*p)
		colT := tensor.FromSlice(col, ckk, p)
		dcol := make([]float32, ckk*p)
		dcolT := tensor.FromSlice(dcol, ckk, p)
		var xbuf []float32
		var rowPtr, evIdx []int32
		if xEv != nil {
			rowPtr = make([]int32, ckk+1)
			if !sparseGrad {
				xbuf = make([]float32, chw)
			}
		}
		for bi := lo; bi < hi; bi++ {
			g := dst(bi)
			var ev *sparse.Events
			if xEv != nil && sparseGrad {
				flat := xEv.ColIdx[xEv.RowPtr[bi]:xEv.RowPtr[bi+1]]
				evIdx = tensor.Im2ColPatternFromEvents(flat, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow, rowPtr, evIdx[:0])
				ev = &sparse.Events{Rows: ckk, Cols: p, RowPtr: rowPtr, ColIdx: evIdx}
			} else if xEv != nil {
				xEv.ScatterRowInto(bi, xbuf, 1)
				tensor.Im2Col(col, xbuf, c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
				xEv.ScatterRowInto(bi, xbuf, 0)
			} else {
				tensor.Im2Col(col, xDense.Data[bi*chw:(bi+1)*chw], c, h, w, l.K, l.K, l.Stride, l.Pad, oh, ow)
			}
			dyb := tensor.FromSlice(dy.Data[bi*l.OutC*p:(bi+1)*l.OutC*p], l.OutC, p)
			if sparseGrad {
				if ev != nil {
					sparse.CSRGradABTEventsInto(g.vals, wcsr, dyb, ev, kernelWorkers)
				} else {
					sparse.CSRGradABTInto(g.vals, wcsr, dyb, colT, kernelWorkers)
				}
			} else {
				tensor.MatMulABTSerialInto(g.dw, dyb, colT, g.add)
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
