package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"ndsnn/internal/bench"
	"ndsnn/internal/core"
	"ndsnn/internal/data"
	"ndsnn/internal/layers"
	"ndsnn/internal/loss"
	"ndsnn/internal/metrics"
	"ndsnn/internal/opt"
	"ndsnn/internal/rng"
	"ndsnn/internal/snn"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
	"ndsnn/internal/train"
)

// The traced run replays a trainer call step by step from this file, so
// that every call into the program's packages can be timed from outside:
// data.Dataset.Batch, tape.Run and tape.RunBackward on one layer at a time,
// loss.CrossEntropyRate, ZeroGrads, opt.SGD.Step and core.Rewirer.Apply.
// The replay mirrors core.TrainNDSNN and baselines.TrainDense (as driven by
// bench.RunOn) call for call, including every random-number draw, so its
// per-epoch loss must equal the trainer's exactly; trace.loss_drift checks
// that it does.

// replayResult is what a traced replay measured.
type replayResult struct {
	history        []train.EpochStats
	wall           time.Duration
	steps          int
	rewireRounds   int
	denseGradSteps int
	poolTasks      int64
	allocBytes     uint64
	lastEvents     metrics.EventStats
	density        float64
}

// layerKind groups a network layer for the per-layer metrics. Layers before
// the first spiking layer form the prefix (conv1 and its BN in VGG-16).
func layerKind(l layers.Layer, prefix bool) string {
	if prefix {
		return "layers.prefix"
	}
	switch l.(type) {
	case *layers.Conv2d:
		return "layers.conv"
	case *layers.BatchNorm:
		return "layers.bn"
	case *snn.LIF:
		return "snn.lif"
	case *layers.MaxPool2d, *layers.AvgPool2d, *layers.Flatten:
		return "layers.pool"
	case *layers.Linear:
		return "layers.linear"
	default:
		return "layers.other"
	}
}

func isSpiking(l layers.Layer) bool {
	_, ok := l.(*snn.LIF)
	return ok
}

// replayTrainer trains in.net exactly as runTrainer would, recording spans
// into tr.
func replayTrainer(s bench.Scale, method string, in trainInput, tr *tracer) (*replayResult, error) {
	net, ds := in.net, in.ds
	lr := s.LRFor(arch)
	common := train.Common{
		Epochs: s.Epochs, BatchSize: s.BatchSize,
		LR: lr, LRMin: lr / 100, Momentum: 0.9, WeightDecay: 5e-4,
		MaxBatches: s.MaxBatches, Seed: in.seed + 1,
	}.WithDefaults()

	kinds := make([]string, len(net.Layers))
	names := make([]string, len(net.Layers))
	prefix := true
	for i, l := range net.Layers {
		if isSpiking(l) {
			prefix = false
		}
		kinds[i] = layerKind(l, prefix)
		names[i] = fmt.Sprintf("%02d_%s", i, strings.TrimPrefix(fmt.Sprintf("%T", l), "*"))
	}

	start := time.Now()
	root := tr.begin("train.call", method, 0, -1)
	r := rng.New(common.Seed)
	sgd := opt.NewSGD(common.LR, common.Momentum, common.WeightDecay)
	var loopRng *rng.RNG
	// onBatchStart and onStep carry NDSNN's hooks; Dense has none.
	onBatchStart := func(step int) bool { return false }
	onStep := func(step int, parent int) bool { return false }
	stepsPerEpoch := (ds.Train.N() + common.BatchSize - 1) / common.BatchSize
	if common.MaxBatches > 0 && stepsPerEpoch > common.MaxBatches {
		stepsPerEpoch = common.MaxBatches
	}
	switch method {
	case bench.MethodDense:
		loopRng = r.Split()
	case bench.MethodNDSNN:
		cfg := core.Config{
			InitialSparsity: bench.InitialSparsityFor(finalSparsity), FinalSparsity: finalSparsity,
			DeltaT: s.DeltaT, Grow: core.GrowByGradient, Shape: core.Cubic,
		}.WithDefaults()
		params := layers.PrunableParams(net.Params())
		shapes := core.ShapesOf(params)
		densInit := core.Densities(shapes, 1-cfg.InitialSparsity, cfg.Distribution)
		densFinal := core.Densities(shapes, 1-cfg.FinalSparsity, cfg.Distribution)
		thetaInit := make([]float64, len(params))
		thetaFinal := make([]float64, len(params))
		for i := range params {
			thetaInit[i] = 1 - densInit[i]
			thetaFinal[i] = 1 - densFinal[i]
		}
		sp := tr.begin("core.init_masks", "", 0, root)
		core.InitMasks(params, densInit, r.Split())
		tr.end(sp)
		loopRng = r.Split()
		totalSteps := common.Epochs * stepsPerEpoch
		rampSteps := int(cfg.RampFraction * float64(totalSteps))
		stopStep := int(cfg.StopFraction * float64(totalSteps))
		if minStop := rampSteps + cfg.DeltaT + 1; stopStep < minStop {
			stopStep = minStop
		}
		rewirer := &core.Rewirer{
			Params: params,
			Schedule: &core.SparsitySchedule{
				Initial: thetaInit, Final: thetaFinal,
				T0: 0, RampSteps: rampSteps, Shape: cfg.Shape,
			},
			Death:     core.DeathRate{D0: cfg.DeathRate0, DMin: cfg.DeathRateMin, T0: 0, RampSteps: rampSteps},
			Criterion: cfg.Grow,
			Opt:       sgd,
			Rng:       r.Split(),
		}
		rewires := func(step int) bool { return step%cfg.DeltaT == 0 && step < stopStep }
		onBatchStart = func(step int) bool {
			feeds := rewires(step)
			for _, p := range params {
				p.SparseGradOK = !feeds
			}
			return feeds
		}
		onStep = func(step int, parent int) bool {
			if !rewires(step) {
				return false
			}
			sp := tr.begin("core.rewire", "", int64(step), parent)
			rewirer.Apply(step)
			tr.end(sp)
			return true
		}
	default:
		return nil, fmt.Errorf("replay: unsupported method %q", method)
	}
	schedule := opt.CosineLR{Base: common.LR, Min: common.LRMin, Total: common.Epochs}

	res := &replayResult{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pool0 := tensor.ReadPoolStats().Tasks
	params := net.Params()
	step := 0
	for epoch := 0; epoch < common.Epochs; epoch++ {
		ep := tr.begin("train.epoch", "", int64(epoch), root)
		sgd.LR = schedule.At(epoch)
		net.ResetSpikeStats()
		net.ResetEventStats()
		tape.ResetPeak()
		batches := data.ShuffledBatches(ds.Train.N(), common.BatchSize, loopRng)
		if common.MaxBatches > 0 && len(batches) > common.MaxBatches {
			batches = batches[:common.MaxBatches]
		}
		var totalLoss float64
		correct, seen := 0, 0
		for _, idxs := range batches {
			id := int64(step + 1)
			st := tr.begin("train.step", "", id, ep)
			if onBatchStart(step + 1) {
				res.denseGradSteps++
			}
			sp := tr.begin("data.batch", "", id, st)
			x, labels := ds.Batch(&ds.Train, idxs)
			tr.end(sp)

			net.ResetState()
			cur := make([]*tensor.Tensor, net.T)
			for t := range cur {
				cur[t] = x
			}
			for i, l := range net.Layers {
				sp := tr.begin(kinds[i]+".fwd", names[i], id, st)
				cur = tape.Run([]tape.Layer{l}, cur, true)
				tr.end(sp)
			}

			sp = tr.begin("loss", "", id, st)
			batchLoss, grads := loss.CrossEntropyRate(cur, labels)
			totalLoss += batchLoss * float64(len(idxs))
			correct += loss.CountCorrect(cur, labels)
			seen += len(idxs)
			tr.end(sp)

			sp = tr.begin("layers.zero_grads", "", id, st)
			net.ZeroGrads()
			tr.end(sp)

			g := grads
			for i := len(net.Layers) - 1; i >= 0; i-- {
				sp := tr.begin(kinds[i]+".bwd", names[i], id, st)
				g = tape.RunBackward([]tape.Layer{net.Layers[i]}, g)
				tr.end(sp)
			}

			sp = tr.begin("opt.step", "", id, st)
			sgd.Step(params)
			tr.end(sp)
			step++
			// The trainer's OnStep hook runs the rewire after the optimizer
			// step; it counts toward the step it follows.
			if onStep(step, st) {
				res.rewireRounds++
			}
			tr.end(st)
		}
		stats := train.EpochStats{
			Epoch: epoch, Loss: totalLoss / float64(seen),
			TrainAcc:  float64(correct) / float64(seen),
			SpikeRate: net.SpikeRate(),
			Sparsity:  layers.GlobalSparsity(layers.PrunableParams(params)),
			LR:        sgd.LR, Steps: len(batches),
			Occupancy:      net.EventStats().Occupancy(),
			PeakCacheBytes: tape.PeakBytes(),
		}
		res.lastEvents = net.EventStats()
		tr.end(ep)
		for _, p := range params {
			if p.W.HasNaN() {
				return nil, fmt.Errorf("replay: parameter %s diverged at epoch %d", p.Name, epoch)
			}
		}
		res.history = append(res.history, stats)
	}
	runtime.ReadMemStats(&ms1)
	res.poolTasks = tensor.ReadPoolStats().Tasks - pool0
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.steps = step

	sp := tr.begin("train.eval", "", 0, root)
	train.Evaluate(net, ds, &ds.Test, common.EvalBatch)
	tr.end(sp)
	tr.end(root)
	res.wall = time.Since(start)
	res.density = 1 - layers.GlobalSparsity(layers.PrunableParams(params))
	return res, nil
}

// lossDrift is the largest per-epoch difference between the replay's and
// the trainer's mean training loss.
func lossDrift(replay, trainer []train.EpochStats) float64 {
	if len(replay) != len(trainer) {
		return math.Inf(1)
	}
	var d float64
	for i := range replay {
		if v := math.Abs(replay[i].Loss - trainer[i].Loss); v > d || math.IsNaN(v) {
			d = v
		}
	}
	return d
}
