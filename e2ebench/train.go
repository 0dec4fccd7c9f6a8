package main

import (
	"fmt"
	"math"
	"time"

	"ndsnn/internal/bench"
	"ndsnn/internal/data"
	"ndsnn/internal/layers"
	"ndsnn/internal/models"
	"ndsnn/internal/snn"
	"ndsnn/internal/train"
)

// benchScale is the bench scale at T=5 with the trainer-call length.
func benchScale() bench.Scale {
	s := bench.ScaleBench
	s.Timesteps = timesteps
	s.BatchSize = batchSize
	s.Epochs = trainEpochs
	s.MaxBatches = trainSteps
	return s
}

// subSeed derives the seed of a run's i-th trainer call from the workload
// seed, so every call trains on its own data and initialisation.
func subSeed(seed uint64, i int) uint64 { return seed*1009 + uint64(i) }

// trainInput is one trainer call's inputs: the dataset and a freshly
// initialised network.
type trainInput struct {
	seed  uint64
	ds    *data.Dataset
	net   *snn.Network
	setup time.Duration
}

// newInput generates the dataset and builds the network for one call.
func newInput(s bench.Scale, seed uint64) trainInput {
	t0 := time.Now()
	ds := s.Dataset(bench.CIFAR10, seed)
	net := models.Build(models.Config{
		Arch: arch, Classes: ds.Config.Classes,
		InC: ds.Config.C, InH: ds.Config.H, InW: ds.Config.W,
		Timesteps: s.Timesteps, Neuron: snn.DefaultNeuron(),
		Profile: s.Profile, Seed: seed,
	})
	return trainInput{seed: seed, ds: ds, net: net, setup: time.Since(t0)}
}

func specFor(method string, seed uint64) bench.Spec {
	return bench.Spec{Method: method, Arch: arch, Dataset: bench.CIFAR10, Sparsity: finalSparsity, Seed: seed}
}

// trainCall is one finished trainer call.
type trainCall struct {
	wall    time.Duration
	samples int
	res     *train.Result
}

func (c trainCall) samplesPerS() float64 { return float64(c.samples) / c.wall.Seconds() }

func (c trainCall) steps() int {
	n := 0
	for _, h := range c.res.History {
		n += h.Steps
	}
	return n
}

// peakMiB is the largest per-epoch tape high-water mark of the call.
func (c trainCall) peakMiB() float64 {
	var peak int64
	for _, h := range c.res.History {
		if h.PeakCacheBytes > peak {
			peak = h.PeakCacheBytes
		}
	}
	return float64(peak) / (1 << 20)
}

func (c trainCall) finalLoss() float64 { return c.res.History[len(c.res.History)-1].Loss }

// runTrainer trains in.net with the program's trainer entry point and
// checks the result.
func runTrainer(s bench.Scale, method string, in trainInput) (trainCall, error) {
	t0 := time.Now()
	res, err := bench.RunOn(s, specFor(method, in.seed), in.ds, in.net)
	wall := time.Since(t0)
	if err != nil {
		return trainCall{}, fmt.Errorf("%s trainer, seed %d: %w", method, in.seed, err)
	}
	c := trainCall{wall: wall, res: res}
	// Every batch is full: the bench-scale training split holds a multiple
	// of the batch size.
	c.samples = c.steps() * s.BatchSize
	if err := checkTrained(method, res.History, in.net); err != nil {
		return c, fmt.Errorf("%s trainer, seed %d: %w", method, in.seed, err)
	}
	return c, nil
}

// checkTrained is the training correctness gate: finite losses and
// parameters, and for NDSNN the 95% final sparsity.
func checkTrained(method string, history []train.EpochStats, net *snn.Network) error {
	for _, h := range history {
		if math.IsNaN(h.Loss) || math.IsInf(h.Loss, 0) {
			return fmt.Errorf("epoch %d loss is %v", h.Epoch, h.Loss)
		}
	}
	for _, p := range net.Params() {
		if p.W.HasNaN() {
			return fmt.Errorf("parameter %s is not finite", p.Name)
		}
	}
	if method == bench.MethodNDSNN {
		if got := layers.GlobalSparsity(layers.PrunableParams(net.Params())); got < finalSparsity-1e-3 {
			return fmt.Errorf("final sparsity %.4f below the %.2f target", got, finalSparsity)
		}
	}
	return nil
}
