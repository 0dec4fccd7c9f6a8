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

// firstBitDiff returns the first index where a and b differ bitwise (-1 when
// they are identical; lengths must match).
func firstBitDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// signedZeroGrad is a random output gradient with exact +0 and −0 entries
// mixed in, the values the event-native weight gradient skips.
func signedZeroGrad(r *rng.RNG, shape ...int) *tensor.Tensor {
	dy := randInput(r, shape...)
	negZero := float32(math.Copysign(0, -1))
	for i := range dy.Data {
		switch i % 7 {
		case 2:
			dy.Data[i] = 0
		case 5:
			dy.Data[i] = negZero
		}
	}
	return dy
}

// TestConv2dGrowthStepGradMatchesOracle pins the growth-step weight gradient
// (SparseGradOK unset on event-encoded records, computed from the rebuilt
// im2col event pattern) bit-identical to the decode + Im2Col + dense GEMM
// route it replaced (OracleBackward): weight, bias and input gradients,
// through Backward and BackwardSeq, for dense and CSR weights, with and
// without bias, stride 1 and 2, spike rates from silent to near the tape's
// event limit, ±0 in dy, batches narrower and wider than the worker count,
// at GOMAXPROCS 1, 2, 4 and 8.
func TestConv2dGrowthStepGradMatchesOracle(t *testing.T) {
	rates := []float64{0, 0.1, 0.45}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, csr := range []bool{false, true} {
		for _, bias := range []bool{false, true} {
			for _, stride := range []int{1, 2} {
				for _, seq := range []bool{false, true} {
					for _, batch := range []int{3, 9} {
						for _, procs := range []int{1, 2, 4, 8} {
							label := fmt.Sprintf("csr=%v/bias=%v/stride=%d/seq=%v/batch=%d/GOMAXPROCS=%d", csr, bias, stride, seq, batch, procs)
							runtime.GOMAXPROCS(procs)
							checkGrowthStepGrad(t, label, csr, bias, stride, seq, batch, rates)
						}
					}
				}
			}
		}
	}
}

func checkGrowthStepGrad(t *testing.T, label string, csr, bias bool, stride int, seq bool, batch int, rates []float64) {
	t.Helper()
	seed := uint64(1301 + batch*17 + stride)
	build := func() *layers.Conv2d {
		r := rng.New(seed)
		l := layers.NewConv2d("c", 4, 10, 3, stride, 1, bias, r)
		maskParam(l.Weight, 0.3, r)
		return l
	}
	r := rng.New(seed + 1)
	T := len(rates)
	xs := make([]*tensor.Tensor, T)
	dys := make([]*tensor.Tensor, T)
	oh := tensor.ConvOutSize(7, 3, stride, 1)
	for t2, rate := range rates {
		xs[t2] = spikeTensor(r, rate, batch, 4, 7, 7)
		dys[t2] = signedZeroGrad(r, batch, 10, oh, oh)
	}
	density := 0.0
	if csr {
		density = 1
	}
	got, want := build(), build()
	var gotDx, wantDx []*tensor.Tensor
	withCSRDensity(density, func() {
		for _, l := range []*layers.Conv2d{got, want} {
			l.Weight.InvalidateCSR()
			for _, x := range xs {
				l.Forward(x, true)
			}
		}
		if seq {
			gotDx = got.BackwardSeq(dys)
		} else {
			gotDx = make([]*tensor.Tensor, T)
			for t2 := T - 1; t2 >= 0; t2-- {
				gotDx[t2] = got.Backward(dys[t2])
			}
		}
		wantDx = make([]*tensor.Tensor, T)
		for t2 := T - 1; t2 >= 0; t2-- {
			wantDx[t2] = want.OracleBackward(dys[t2])
		}
	})
	if i := firstBitDiff(got.Weight.Grad.Data, want.Weight.Grad.Data); i >= 0 {
		t.Fatalf("%s: weight grad[%d] %v, oracle %v", label, i, got.Weight.Grad.Data[i], want.Weight.Grad.Data[i])
	}
	if bias {
		if i := firstBitDiff(got.Bias.Grad.Data, want.Bias.Grad.Data); i >= 0 {
			t.Fatalf("%s: bias grad[%d] %v, oracle %v", label, i, got.Bias.Grad.Data[i], want.Bias.Grad.Data[i])
		}
	}
	for t2 := range gotDx {
		if i := firstBitDiff(gotDx[t2].Data, wantDx[t2].Data); i >= 0 {
			t.Fatalf("%s: dx[%d][%d] %v, oracle %v", label, t2, i, gotDx[t2].Data[i], wantDx[t2].Data[i])
		}
	}
}

// TestConv2dForwardSeqBinaryAboveRateMatchesForward pins ForwardSeq on binary
// inputs whose fused occupancy exceeds EventMaxRate — per-timestep decisions
// made on the pass-1 patterns — bit-identical to T Forward calls, with
// identical EventStats and an identical tape (checked through the replayed
// input gradients). The gates cover the kill switch (0), a mix of event and
// CSR timesteps, and every timestep on the CSR GEMM; one arm makes a sample
// analog, which must keep Forward's own path.
func TestConv2dForwardSeqBinaryAboveRateMatchesForward(t *testing.T) {
	rates := []float64{0.02, 0.5, 0.1, 0.9}
	for _, maxRate := range []float64{0, 0.12, 0.01} {
		for _, analog := range []bool{false, true} {
			for _, batch := range []int{2, 9} {
				label := fmt.Sprintf("maxRate=%v/analog=%v/batch=%d", maxRate, analog, batch)
				seed := uint64(1401 + batch)
				build := func() *layers.Conv2d {
					r := rng.New(seed)
					l := layers.NewConv2d("c", 4, 8, 3, 1, 1, true, r)
					maskParam(l.Weight, 0.25, r)
					return l
				}
				r := rng.New(seed + 1)
				xs := make([]*tensor.Tensor, len(rates))
				dys := make([]*tensor.Tensor, len(rates))
				for t2, rate := range rates {
					xs[t2] = spikeTensor(r, rate, batch, 4, 6, 6)
					dys[t2] = randInput(r, batch, 8, 6, 6)
				}
				if analog {
					xs[2].Data[4*6*6+5] = 0.5 // sample 1, timestep 2
				}
				seqL, refL := build(), build()
				var outs, refs, seqDx, refDx []*tensor.Tensor
				withCSRDensity(1, func() {
					withEventRate(maxRate, func() {
						seqL.Weight.InvalidateCSR()
						refL.Weight.InvalidateCSR()
						outs = seqL.ForwardSeq(xs, true)
						for _, x := range xs {
							refs = append(refs, refL.Forward(x, true))
						}
						seqDx = make([]*tensor.Tensor, len(rates))
						refDx = make([]*tensor.Tensor, len(rates))
						for t2 := len(rates) - 1; t2 >= 0; t2-- {
							seqDx[t2] = seqL.Backward(dys[t2])
							refDx[t2] = refL.Backward(dys[t2])
						}
					})
				})
				for t2 := range outs {
					if i := firstBitDiff(outs[t2].Data, refs[t2].Data); i >= 0 {
						t.Fatalf("%s: out[%d][%d] %v, Forward %v", label, t2, i, outs[t2].Data[i], refs[t2].Data[i])
					}
					if i := firstBitDiff(seqDx[t2].Data, refDx[t2].Data); i >= 0 {
						t.Fatalf("%s: replayed dx[%d][%d] differs", label, t2, i)
					}
				}
				if i := firstBitDiff(seqL.Weight.Grad.Data, refL.Weight.Grad.Data); i >= 0 {
					t.Fatalf("%s: replayed weight grad[%d] differs", label, i)
				}
				st, ref := seqL.EventStats(), refL.EventStats()
				if st != ref {
					t.Fatalf("%s: EventStats %+v, Forward %+v", label, st, ref)
				}
				if maxRate == 0 && st.EventForwards != 0 {
					t.Fatalf("%s: kill switch routed %d forwards event-driven", label, st.EventForwards)
				}
				if maxRate == 0.12 && (st.EventForwards == 0 || st.EventForwards == st.Forwards) {
					t.Fatalf("%s: want a mix of event and CSR timesteps, got %+v", label, st)
				}
			}
		}
	}
}
