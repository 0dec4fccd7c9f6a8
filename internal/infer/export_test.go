package infer

import "ndsnn/internal/tensor"

// OracleInfer is the reference the stateless-prefix hoist is pinned
// against: the original pass loop, which refreshes the input's events and
// runs every stage at every timestep. It serves one sample from a fresh
// arena and returns the time-averaged output plus the SynOps each top-level
// stage spent over all T timesteps. It touches neither the engine's SynOps
// counter nor its telemetry.
func (e *Engine) OracleInfer(sample *tensor.Tensor) (out []float32, stageOps []int64) {
	sc := e.NewScratch()
	sc.begin()
	stageOps = make([]int64, len(e.stages))
	in := &sc.input
	in.shape = appendShape(in.shape[:0], sample)
	in.data = sample.Data
	for t := 0; t < e.T; t++ {
		in.refreshEvents()
		cur := in
		for i, s := range e.stages {
			prev := sc.synOps
			cur = s.step(sc, cur)
			stageOps[i] += sc.synOps - prev
		}
		if len(sc.avg) == 0 {
			sc.avg = growFloat32(sc.avg, len(cur.data))
		}
		for i, v := range cur.data {
			sc.avg[i] += v
		}
	}
	inv := 1 / float32(e.T)
	for i := range sc.avg {
		sc.avg[i] *= inv
	}
	return sc.avg, stageOps
}

// PrefixKinds names the stages of the engine's stateless prefix, in order.
func (e *Engine) PrefixKinds() []string {
	kinds := make([]string, e.prefix)
	for i, s := range e.stages[:e.prefix] {
		kinds[i] = stageKind(s)
	}
	return kinds
}
