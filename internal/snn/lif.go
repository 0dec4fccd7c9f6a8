package snn

import (
	"ndsnn/internal/layers"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
)

// NeuronConfig carries the LIF hyperparameters shared by all neurons in a
// model.
type NeuronConfig struct {
	// Alpha is the membrane decay constant in (0,1]; the paper's α.
	Alpha float32
	// Threshold is the firing threshold ϑ.
	Threshold float32
	// DetachReset stops gradients from flowing through the reset term
	// (the usual stabilization in surrogate-gradient training).
	DetachReset bool
	// HardReset switches from the paper's soft (subtractive) reset to a
	// multiplicative reset v[t] = α·v[t-1]·(1-o[t-1]) + I[t], the other
	// common LIF formulation (e.g. SpikingJelly's default).
	HardReset bool
	// Surrogate is the Heaviside-derivative approximation; nil means ATan.
	Surrogate Surrogate
	// TimeParallel selects the ParLIF neuron: the membrane is computed for
	// all T timesteps at once as a banded causal filter (see ParLIF) instead
	// of the sequential recurrence. Ignored (sequential LIF is used) when
	// HardReset is set — the multiplicative reset's spike-dependent decay has
	// no parallel filter form.
	TimeParallel bool
}

// DefaultNeuron returns the paper's configuration: α=0.5, ϑ=1, detached
// reset, arctangent surrogate.
func DefaultNeuron() NeuronConfig {
	return NeuronConfig{Alpha: 0.5, Threshold: 1, DetachReset: true, Surrogate: ATan{}}
}

func (c NeuronConfig) surrogate() Surrogate {
	if c.Surrogate == nil {
		return ATan{}
	}
	return c.Surrogate
}

// New constructs a LIF layer from the configuration.
func (c NeuronConfig) New() *LIF {
	return &LIF{Config: c}
}

// NewNeuron constructs the configured spiking layer: ParLIF when
// TimeParallel is set (soft reset only), sequential LIF otherwise. Model
// builders go through this so the selection knob reaches every neuron.
func (c NeuronConfig) NewNeuron() layers.Layer {
	if c.TimeParallel && !c.HardReset {
		return NewParLIF(c)
	}
	return c.New()
}

// LIF is a layer of Leaky Integrate-and-Fire neurons with soft (subtractive)
// reset. Forward implements Eq. (1); Backward implements the surrogate BPTT
// recursion of Eq. (2):
//
//	ε[t] = δ[t]·φ(v[t]-ϑ) + α·ε[t+1]
//
// where δ[t] is the incoming output gradient (plus the reset pathway when
// DetachReset is false) and ε[t] = ∂L/∂v[t] is both what flows to the
// previous timestep and, because v[t] is linear in the input current, the
// gradient returned to the upstream layer.
//
// Smooth mode replaces the Heaviside output with the surrogate's primitive,
// making forward and backward exactly consistent; it exists so the entire
// BPTT machinery can be validated against finite differences in tests.
type LIF struct {
	Config NeuronConfig
	// Smooth switches the forward nonlinearity to the surrogate primitive.
	Smooth bool

	v     *tensor.Tensor // membrane potential after the current timestep
	oPrev *tensor.Tensor // previous timestep's spikes (for the reset term)
	vs    []*tensor.Tensor
	// os tapes the per-timestep outputs needed by the hard-reset backward;
	// spiking-mode outputs are binary and get event-encoded (~spikeRate of
	// the dense footprint), smooth-mode outputs stay dense automatically.
	os    tape.Stack
	gNext *tensor.Tensor // ε[t+1] carried between Backward calls
	zeros []float32      // ε[t+1] of the last timestep, read-only

	spikeSum   float64
	spikeElems int64
}

// Forward integrates one timestep and emits spikes.
func (l *LIF) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if l.v == nil || l.v.Size() != x.Size() {
		l.v = tensor.New(x.Shape()...)
		l.oPrev = tensor.New(x.Shape()...)
	}
	cfg := l.Config
	alpha, theta := cfg.Alpha, cfg.Threshold
	vNew := tensor.New(x.Shape()...)
	out := tensor.New(x.Shape()...)
	xd := x.Data
	vd, od := vNew.Data[:len(xd)], out.Data[:len(xd)]
	pv, po := l.v.Data[:len(xd)], l.oPrev.Data[:len(xd)]
	spikes := 0
	if cfg.HardReset {
		for i, xi := range xd {
			v := alpha*pv[i]*(1-po[i]) + xi
			vd[i] = v
			if v >= theta {
				od[i] = 1
				spikes++
			}
		}
	} else {
		for i, xi := range xd {
			v := alpha*pv[i] + xi - theta*po[i]
			vd[i] = v
			if v >= theta {
				od[i] = 1
				spikes++
			}
		}
	}
	sum := float64(spikes)
	if l.Smooth {
		sur := cfg.surrogate()
		sum = 0
		for i, v := range vd {
			o := sur.Primitive(v - theta)
			od[i] = o
			sum += float64(o)
		}
	}
	l.spikeSum += sum
	l.spikeElems += int64(len(xd))
	l.v = vNew
	l.oPrev = out
	if train {
		l.vs = append(l.vs, vNew)
		if cfg.HardReset {
			l.os.Push(out)
		}
	}
	return out
}

// Backward propagates the temporal error recursion for one timestep.
func (l *LIF) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if len(l.vs) == 0 {
		panic("snn: LIF.Backward called with no cached timestep")
	}
	v := l.vs[len(l.vs)-1]
	l.vs = l.vs[:len(l.vs)-1]
	cfg := l.Config
	alpha, theta := cfg.Alpha, cfg.Threshold
	g := tensor.New(dy.Shape()...)
	dyd := dy.Data
	gd, vd := g.Data[:len(dyd)], v.Data[:len(dyd)]
	// ε[t+1]; the last timestep (nothing carried) reads zeros, so every
	// configuration runs one loop with the same arithmetic.
	var gn []float32
	if l.gNext != nil && l.gNext.Size() == dy.Size() {
		gn = l.gNext.Data
	} else {
		if cap(l.zeros) < len(dyd) {
			l.zeros = make([]float32, len(dyd))
		}
		gn = l.zeros
	}
	gn = gn[:len(dyd)]
	// gd holds φ(v[t]-ϑ) until each element is overwritten with ε[t].
	cfg.surrogate().GradInto(gd, vd, theta)
	switch {
	case cfg.HardReset:
		// v[t+1] = α·v[t]·(1-o[t]) + I[t+1]: the membrane path decays by
		// α(1-o[t]) and, when the reset is not detached, o[t] additionally
		// receives -α·v[t]·ε[t+1].
		if l.os.Len() == 0 {
			panic("snn: hard-reset LIF missing cached outputs")
		}
		od := l.os.Pop().Materialize().Data[:len(dyd)]
		if cfg.DetachReset {
			for i, phi := range gd {
				gd[i] = dyd[i]*phi + alpha*(1-od[i])*gn[i]
			}
		} else {
			for i, phi := range gd {
				next := gn[i]
				gd[i] = (dyd[i]-alpha*vd[i]*next)*phi + alpha*(1-od[i])*next
			}
		}
	case cfg.DetachReset:
		for i, phi := range gd {
			gd[i] = dyd[i]*phi + alpha*gn[i]
		}
	default:
		for i, phi := range gd {
			next := gn[i]
			gd[i] = (dyd[i]-theta*next)*phi + alpha*next
		}
	}
	l.gNext = g
	return g
}

// Params returns nil; LIF has no trainable parameters.
func (l *LIF) Params() []*layers.Param { return nil }

// Reset clears membrane state, caches and the carried error signal.
func (l *LIF) Reset() {
	l.v = nil
	l.oPrev = nil
	l.vs = nil
	l.os.Clear()
	l.gNext = nil
}

// SpikeStats returns the total spikes emitted and neuron-timestep count
// since the last ResetSpikeStats.
func (l *LIF) SpikeStats() (sum float64, elems int64) { return l.spikeSum, l.spikeElems }

// ResetSpikeStats zeroes the spike counters.
func (l *LIF) ResetSpikeStats() {
	l.spikeSum = 0
	l.spikeElems = 0
}
