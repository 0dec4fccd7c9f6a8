package infer_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ndsnn/internal/data"
	"ndsnn/internal/infer"
	"ndsnn/internal/models"
	"ndsnn/internal/obs"
	"ndsnn/internal/snn"
	"ndsnn/internal/tensor"
)

// The stateless-prefix hoist: a pass runs the stages before the first
// spiking neuron once, at t=0, and replays their kept output at every
// timestep. These pins compare every serving entry point against the
// original every-stage-every-timestep loop (OracleInfer in export_test.go),
// bit for bit, on float32, int8, int4 and fully-integer engines of the
// lenet5, VGG-16 and ResNet test models, and pin the SynOps accounting:
// prefix stages count one timestep's worth per request, the rest all T.

func TestPrefixHoistBitIdenticalToOracle(t *testing.T) {
	const T, n = 3, 4
	archs := []struct {
		arch string
		hw   int
	}{{"lenet5", 32}, {"vgg16", 32}, {"resnet19", 16}}
	engines := []struct {
		name   string
		cfg    infer.QuantConfig
		prefix []string
	}{
		{"float32", infer.QuantConfig{}, []string{"conv"}},
		{"int8", infer.QuantConfig{WeightBits: 8}, []string{"conv"}},
		{"int4", infer.QuantConfig{WeightBits: 4}, []string{"conv"}},
		{"fullint8", infer.QuantConfig{WeightBits: 8, FullInteger: true}, []string{"aquant", "qconv"}},
	}
	for ai, a := range archs {
		ds := data.Generate(data.Config{
			Name: "prefix", Classes: 4, C: 3, H: a.hw, W: a.hw,
			TrainN: 16, TestN: n, Noise: 0.2, Jitter: 0.05, Seed: 61 + uint64(ai),
		})
		net := models.Build(models.Config{
			Arch: a.arch, Classes: 4, InC: 3, InH: a.hw, InW: a.hw,
			Timesteps: T, Neuron: snn.DefaultNeuron(), Profile: models.ProfileTiny, Seed: 67 + uint64(ai),
		})
		trainBriefly(t, net, ds)
		pix := 3 * a.hw * a.hw
		samples := make([]*tensor.Tensor, n)
		for i := range samples {
			samples[i] = tensor.FromSlice(ds.Test.Images[i*pix:(i+1)*pix], 3, a.hw, a.hw)
		}
		for _, ec := range engines {
			t.Run(a.arch+"/"+ec.name, func(t *testing.T) {
				compile := func() *infer.Engine {
					var eng *infer.Engine
					var err error
					if ec.cfg.WeightBits == 0 {
						eng, err = infer.Compile(net)
					} else {
						eng, err = infer.CompileQuantizedConfig(net, ec.cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					return eng
				}
				plain, traced := compile(), compile()
				reg := obs.New()
				traced.EnableTelemetry(reg, 2) // alternate traced and untraced passes
				if got := plain.PrefixKinds(); !reflect.DeepEqual(got, ec.prefix) {
					t.Fatalf("stateless prefix %v, want %v", got, ec.prefix)
				}
				prefix := len(ec.prefix)

				refs := make([][]float32, n)
				ops := make([][]int64, n) // per request: per-stage SynOps the hoisted pass spends
				var rest int64
				for i, s := range samples {
					out, stageOps := plain.OracleInfer(s)
					refs[i] = out
					for si := 0; si < prefix; si++ {
						if stageOps[si]%T != 0 {
							t.Fatalf("sample %d prefix stage %d: %d SynOps over %d timesteps are not T equal passes", i, si, stageOps[si], T)
						}
						stageOps[si] /= T
					}
					for _, v := range stageOps[prefix:] {
						rest += v
					}
					ops[i] = stageOps
				}
				if rest == 0 || reflect.DeepEqual(refs[0], make([]float32, len(refs[0]))) {
					t.Fatalf("no activity past the prefix (SynOps %d, scores %v): the pin would be vacuous", rest, refs[0])
				}

				want := make([]int64, len(ops[0]))
				// check compares the outputs of samples[first:first+len(got)].
				check := func(what string, first int, got [][]float32) {
					t.Helper()
					for k := range got {
						i := first + k
						for j := range got[k] {
							if math.Float32bits(got[k][j]) != math.Float32bits(refs[i][j]) {
								t.Fatalf("%s sample %d score %d: %v != oracle %v", what, i, j, got[k][j], refs[i][j])
							}
						}
						for si, v := range ops[i] {
							want[si] += v
						}
					}
				}
				for _, e := range []*infer.Engine{plain, traced} {
					e.ResetStats()
				}
				for _, e := range []*infer.Engine{plain, traced} {
					for i, s := range samples {
						check("Infer", i, [][]float32{e.Infer(s)})
					}
					for b := 1; b <= n; b++ {
						check(fmt.Sprintf("InferBatch(%d)", b), 0, e.InferBatch(samples[:b]))
						var pt infer.PassTrace
						check(fmt.Sprintf("InferBatchTraced(%d)", b), 0, e.InferBatchTraced(samples[:b], &pt))
					}
				}
				var total int64
				for _, v := range want {
					total += v
				}
				if got := plain.SynOps() + traced.SynOps(); got != total {
					t.Fatalf("SynOps %d, want %d (prefix once per request, the rest every timestep)", got, total)
				}
				// The telemetry engine served half the requests.
				snap := reg.Snapshot()
				for si, name := range traced.Telemetry().StageNames() {
					got := snap.Counter(`infer_stage_synops_total{stage="` + name + `"}`)
					if got*2 != want[si] {
						t.Fatalf("stage %s telemetry SynOps %d, want %d", name, got, want[si]/2)
					}
				}
			})
		}
	}
}
