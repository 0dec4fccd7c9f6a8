package layers_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ndsnn/internal/layers"
	"ndsnn/internal/rng"
	"ndsnn/internal/tensor"
)

// TestConv2dGradBitIdenticalAcrossGOMAXPROCS pins the conv weight-gradient
// reduction order: Backward and BackwardSeq must produce bit-identical weight,
// bias and input gradients under any thread budget, on every backward path —
// dense GEMM, dense weight gradients from event-encoded records (dense or
// CSR weights, through Backward and BackwardSeq), CSR backward-data with
// dense weight gradients, the active-position-only SDDMM over dense and
// event-encoded records, and the fused time-major event replay — with and
// without bias, for batches both wider and narrower than the worker count.
func TestConv2dGradBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	const T = 3
	paths := []struct {
		name       string
		csr        bool // weight CSR-encoded (CSRMaxDensity 1 vs 0)
		sparseGrad bool // active-position-only weight gradients
		spikes     bool // binary inputs: event-encoded tape records
		seq        bool // replay through BackwardSeq instead of T Backward calls
	}{
		{"dense", false, false, false, false},
		{"dense-events", false, false, true, false},
		{"dense-events-seq", false, false, true, true},
		{"csr", true, false, false, false},
		{"csr-events", true, false, true, false},
		{"csr-events-seq", true, false, true, true},
		{"sparse-grad", true, true, false, false},
		{"sparse-grad-events", true, true, true, false},
		{"fused-events", true, true, true, true},
	}
	type grads struct{ w, b []float32 }
	run := func(path int, bias bool, batch int) (grads, []*tensor.Tensor) {
		pc := paths[path]
		r := rng.New(811 + uint64(path)*7 + uint64(batch))
		l := layers.NewConv2d("c", 4, 12, 3, 1, 1, bias, r)
		maskParam(l.Weight, 0.3, r)
		l.Weight.SparseGradOK = pc.sparseGrad
		xs := make([]*tensor.Tensor, T)
		dys := make([]*tensor.Tensor, T)
		for t2 := range xs {
			if pc.spikes {
				xs[t2] = spikeTensor(r, 0.3, batch, 4, 7, 7)
			} else {
				xs[t2] = randInput(r, batch, 4, 7, 7)
			}
			dys[t2] = randInput(r, batch, 12, 7, 7)
		}
		density := 0.0
		if pc.csr {
			density = 1
		}
		var dxs []*tensor.Tensor
		withCSRDensity(density, func() {
			withEventRate(1, func() {
				l.Weight.InvalidateCSR()
				for _, x := range xs {
					l.Forward(x, true)
				}
				if pc.seq {
					dxs = l.BackwardSeq(dys)
					return
				}
				dxs = make([]*tensor.Tensor, T)
				for t2 := T - 1; t2 >= 0; t2-- {
					dxs[t2] = l.Backward(dys[t2])
				}
			})
		})
		g := grads{w: l.Weight.Grad.Clone().Data}
		if bias {
			g.b = l.Bias.Grad.Clone().Data
		}
		return g, dxs
	}
	sameBits := func(a, b []float32) int {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return i
			}
		}
		return -1
	}

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for pi, pc := range paths {
		for _, bias := range []bool{false, true} {
			for _, batch := range []int{3, 9} {
				label := fmt.Sprintf("%s/bias=%v/batch=%d", pc.name, bias, batch)
				runtime.GOMAXPROCS(1)
				ref, refDx := run(pi, bias, batch)
				for _, procs := range []int{2, 4, 8} {
					runtime.GOMAXPROCS(procs)
					got, dx := run(pi, bias, batch)
					if i := sameBits(ref.w, got.w); i >= 0 {
						t.Fatalf("%s GOMAXPROCS=%d: weight grad[%d] %v != 1-CPU %v", label, procs, i, got.w[i], ref.w[i])
					}
					if i := sameBits(ref.b, got.b); i >= 0 {
						t.Fatalf("%s GOMAXPROCS=%d: bias grad[%d] %v != 1-CPU %v", label, procs, i, got.b[i], ref.b[i])
					}
					for t2 := range dx {
						if i := sameBits(refDx[t2].Data, dx[t2].Data); i >= 0 {
							t.Fatalf("%s GOMAXPROCS=%d: dx[%d][%d] differs from 1-CPU", label, procs, t2, i)
						}
					}
				}
			}
		}
	}
}
