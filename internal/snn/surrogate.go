// Package snn implements the spiking-neuron substrate: Leaky
// Integrate-and-Fire (LIF) neurons with surrogate-gradient backpropagation
// through time (BPTT), a sequential network container, and the spiking
// residual block used by ResNet-style SNNs.
//
// Forward dynamics follow the paper's Eq. (1):
//
//	v[t] = α·v[t-1] + Σᵢ wᵢsᵢ[t] - ϑ·o[t-1]
//	o[t] = u(v[t] - ϑ)
//
// and the backward pass follows the temporal error recursion of Eq. (2),
// with the Heaviside derivative replaced by a surrogate (Eq. (3) by
// default: ∂u/∂x ≈ 1/(1+π²x²)).
package snn

import "math"

// Surrogate approximates the derivative of the Heaviside step function for
// the backward pass. Primitive returns the smooth activation whose
// derivative is Grad; the LIF neuron can run in a "smooth" mode that uses
// Primitive as its forward nonlinearity, making the whole network
// differentiable so BPTT can be verified against finite differences.
type Surrogate interface {
	// Grad evaluates the surrogate derivative at x = v - ϑ.
	Grad(x float32) float32
	// GradInto sets dst[i] = Grad(v[i] - theta) for every i — the slice
	// form the LIF backward calls once per timestep instead of Grad per
	// element. dst and v must have the same length.
	GradInto(dst, v []float32, theta float32)
	// Primitive evaluates the smooth activation whose derivative is Grad.
	Primitive(x float32) float32
	// Name identifies the surrogate in logs and ablation tables.
	Name() string
}

// ATan is the arctangent surrogate of Fang et al. (NeurIPS 2021), the one
// the paper adopts (Eq. 3): Grad(x) = 1/(1+π²x²).
type ATan struct{}

// Grad returns 1/(1+π²x²).
func (ATan) Grad(x float32) float32 {
	px := math.Pi * float64(x)
	return float32(1 / (1 + px*px))
}

// GradInto sets dst[i] = Grad(v[i] - theta).
func (s ATan) GradInto(dst, v []float32, theta float32) {
	for i, vi := range v[:len(dst)] {
		dst[i] = s.Grad(vi - theta)
	}
}

// Primitive returns arctan(πx)/π + 1/2.
func (ATan) Primitive(x float32) float32 {
	return float32(math.Atan(math.Pi*float64(x))/math.Pi + 0.5)
}

// Name returns "atan".
func (ATan) Name() string { return "atan" }

// Rectangular is the boxcar surrogate: Grad(x) = 1/(2a) for |x| ≤ a, else 0.
type Rectangular struct {
	// A is the half-width of the box; 0 means the default 0.5.
	A float32
}

func (s Rectangular) a() float32 {
	if s.A <= 0 {
		return 0.5
	}
	return s.A
}

// Grad returns the boxcar derivative.
func (s Rectangular) Grad(x float32) float32 {
	a := s.a()
	if x >= -a && x <= a {
		return 1 / (2 * a)
	}
	return 0
}

// GradInto sets dst[i] = Grad(v[i] - theta).
func (s Rectangular) GradInto(dst, v []float32, theta float32) {
	for i, vi := range v[:len(dst)] {
		dst[i] = s.Grad(vi - theta)
	}
}

// Primitive returns the clamped ramp.
func (s Rectangular) Primitive(x float32) float32 {
	a := s.a()
	switch {
	case x < -a:
		return 0
	case x > a:
		return 1
	default:
		return (x + a) / (2 * a)
	}
}

// Name returns "rect".
func (Rectangular) Name() string { return "rect" }

// Sigmoid is the sigmoid-derivative surrogate with slope 1/A.
type Sigmoid struct {
	// A is the temperature; 0 means the default 1.
	A float32
}

func (s Sigmoid) a() float32 {
	if s.A <= 0 {
		return 1
	}
	return s.A
}

// Grad returns σ'(x/a)/a.
func (s Sigmoid) Grad(x float32) float32 {
	a := s.a()
	sg := 1 / (1 + float32(math.Exp(-float64(x/a))))
	return sg * (1 - sg) / a
}

// GradInto sets dst[i] = Grad(v[i] - theta).
func (s Sigmoid) GradInto(dst, v []float32, theta float32) {
	for i, vi := range v[:len(dst)] {
		dst[i] = s.Grad(vi - theta)
	}
}

// Primitive returns σ(x/a).
func (s Sigmoid) Primitive(x float32) float32 {
	return 1 / (1 + float32(math.Exp(-float64(x/s.a()))))
}

// Name returns "sigmoid".
func (Sigmoid) Name() string { return "sigmoid" }

// SurrogateByName returns the surrogate registered under name
// ("atan", "rect", "sigmoid"); it returns ATan for unknown names.
func SurrogateByName(name string) Surrogate {
	switch name {
	case "rect":
		return Rectangular{}
	case "sigmoid":
		return Sigmoid{}
	default:
		return ATan{}
	}
}
