package snn_test

import (
	"fmt"
	"math"
	"testing"

	"ndsnn/internal/rng"
	"ndsnn/internal/snn"
	"ndsnn/internal/tensor"
)

// lifOracle is the LIF neuron's former element loop, kept as the reference
// the slice loops must reproduce bit for bit: a per-element integrate
// closure branching on the reset mode and a Surrogate.Grad call per element.
type lifOracle struct {
	cfg    snn.NeuronConfig
	smooth bool
	v, o   []float32   // membrane and spikes after the latest timestep
	vs, os [][]float32 // per-timestep tape
	gNext  []float32
	sum    float64
}

func (l *lifOracle) forward(xd []float32) []float32 {
	if l.v == nil {
		l.v = make([]float32, len(xd))
		l.o = make([]float32, len(xd))
	}
	cfg := l.cfg
	sur := cfg.Surrogate
	if sur == nil {
		sur = snn.ATan{}
	}
	vd := make([]float32, len(xd))
	od := make([]float32, len(xd))
	pv, po := l.v, l.o
	integrate := func(i int) float32 {
		if cfg.HardReset {
			return cfg.Alpha*pv[i]*(1-po[i]) + xd[i]
		}
		return cfg.Alpha*pv[i] + xd[i] - cfg.Threshold*po[i]
	}
	var sum float64
	if l.smooth {
		for i := range xd {
			v := integrate(i)
			vd[i] = v
			o := sur.Primitive(v - cfg.Threshold)
			od[i] = o
			sum += float64(o)
		}
	} else {
		for i := range xd {
			v := integrate(i)
			vd[i] = v
			if v >= cfg.Threshold {
				od[i] = 1
				sum++
			}
		}
	}
	l.sum += sum
	l.v, l.o = vd, od
	l.vs = append(l.vs, vd)
	l.os = append(l.os, od)
	return od
}

func (l *lifOracle) backward(dyd []float32) []float32 {
	cfg := l.cfg
	sur := cfg.Surrogate
	if sur == nil {
		sur = snn.ATan{}
	}
	vd, od := l.vs[len(l.vs)-1], l.os[len(l.os)-1]
	l.vs, l.os = l.vs[:len(l.vs)-1], l.os[:len(l.os)-1]
	gd := make([]float32, len(dyd))
	gn := l.gNext
	for i := range dyd {
		do := dyd[i]
		var next float32
		if gn != nil {
			next = gn[i]
		}
		decay := cfg.Alpha
		if cfg.HardReset {
			decay *= 1 - od[i]
			if !cfg.DetachReset {
				do -= cfg.Alpha * vd[i] * next
			}
		} else if !cfg.DetachReset {
			do -= cfg.Threshold * next
		}
		phi := sur.Grad(vd[i] - cfg.Threshold)
		gd[i] = do*phi + decay*next
	}
	l.gNext = gd
	return gd
}

// TestLIFMatchesOracle pins the LIF forward outputs, spike counts and
// backward gradients bit-identical to the former element loop for hard and
// soft reset, detached and attached, every surrogate (and the nil default),
// in spiking and smooth mode, with ±0 entries in the incoming gradient.
func TestLIFMatchesOracle(t *testing.T) {
	const T = 6
	shape := []int{3, 5, 4, 4}
	surs := []snn.Surrogate{nil, snn.ATan{}, snn.Rectangular{}, snn.Rectangular{A: 0.7}, snn.Sigmoid{}, snn.Sigmoid{A: 1.5}}
	negZero := float32(math.Copysign(0, -1))
	for _, hard := range []bool{false, true} {
		for _, detach := range []bool{false, true} {
			for si, sur := range surs {
				for _, smooth := range []bool{false, true} {
					label := fmt.Sprintf("hard=%v/detach=%v/surrogate=%d/smooth=%v", hard, detach, si, smooth)
					cfg := snn.NeuronConfig{Alpha: 0.6, Threshold: 0.8, DetachReset: detach, HardReset: hard, Surrogate: sur}
					l := cfg.New()
					l.Smooth = smooth
					ref := &lifOracle{cfg: cfg, smooth: smooth}
					r := rng.New(uint64(1501 + si))
					for step := 0; step < T; step++ {
						x := tensor.New(shape...)
						for i := range x.Data {
							x.Data[i] = 1.2 * r.NormFloat32()
						}
						got := l.Forward(x, true)
						want := ref.forward(x.Data)
						if i := firstDiff(got.Data, want); i >= 0 {
							t.Fatalf("%s: forward t=%d out[%d] %v, oracle %v", label, step, i, got.Data[i], want[i])
						}
					}
					if sum, _ := l.SpikeStats(); math.Float64bits(sum) != math.Float64bits(ref.sum) || (!smooth && sum == 0) {
						t.Fatalf("%s: spike sum %v, oracle %v", label, sum, ref.sum)
					}
					for step := T - 1; step >= 0; step-- {
						dy := tensor.New(shape...)
						for i := range dy.Data {
							switch i % 9 {
							case 4:
								dy.Data[i] = 0
							case 7:
								dy.Data[i] = negZero
							default:
								dy.Data[i] = r.NormFloat32()
							}
						}
						got := l.Backward(dy)
						want := ref.backward(dy.Data)
						if i := firstDiff(got.Data, want); i >= 0 {
							t.Fatalf("%s: backward t=%d grad[%d] %v, oracle %v", label, step, i, got.Data[i], want[i])
						}
					}
				}
			}
		}
	}
}

// firstDiff returns the first index where a and b differ bitwise, or -1.
func firstDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}
