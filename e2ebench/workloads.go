package main

import "time"

// Every workload trains the bench-scale CIFAR-10 stand-in (3×16×16, 10
// classes) on the tiny-profile spiking VGG-16 with direct encoding, T=5 and
// batch 32, then serves each model it trained through the float32 engine
// behind a default serve.Config. The workloads differ in the training
// method, and so in the kernel paths both training and serving take.
const (
	arch          = "vgg16"
	timesteps     = 5
	batchSize     = 32
	finalSparsity = 0.95
	// One trainer call is one epoch of trainSteps steps.
	trainEpochs = 1
	trainSteps  = 15
	// samplePool is how many test images the serving phases draw requests
	// from; each has a serial Engine.Infer reference output.
	samplePool = 64
	// probeBatch is the batch size of the traced run's direct engine probe
	// (the serving layer's default coalescing limit).
	probeBatch = 8
)

// A run is a sequence of rounds, as many as --seconds allows. Each round
// makes one trainer call, compiles the model it trained, and serves it in
// one open-loop window of windowRequests Poisson
// arrivals; the first round also runs one closed-loop window of
// closedWindowDur. Interleaving spreads every kind of measurement over the
// whole run, and each timing figure is a quartile over the run's calls or
// windows, so a burst of load from other tenants of a shared host has to
// cover most of a run to move it.
const (
	// windowRequests is the open-loop window size: 30 samples lie beyond its
	// p90.
	windowRequests  = 300
	closedWindowDur = time.Second
	// The traced run makes at least tracedRounds rounds and runs a
	// closed-loop window in every round: four windows give the generator
	// lateness p99 over 1200 requests.
	tracedRounds = 4
)

// workload is one benchmark workload.
type workload struct {
	Name string
	Why  string
	// Method is the training method of the workload's trainer calls.
	Method string
	// MinRounds rounds always run. The loss and tape figures come from the
	// first MinRounds trainer calls, so they depend on the seed alone.
	MinRounds int
	// ServeRPS is the open-loop arrival rate.
	ServeRPS float64
	// SLO is the latency limit of slo_attainment.
	SLO time.Duration
}

var workloads = []workload{
	{
		Name: "train-ndsnn",
		Why: "NDSNN from scratch to 95% sparsity, the paper's method: CSR/event kernels, SDDMM weight gradients, " +
			"event-encoded tape, drop-and-grow; each round then serves its sparse model",
		Method: "ndsnn", MinRounds: 5,
		ServeRPS: 200, SLO: 15 * time.Millisecond,
	},
	{
		Name: "train-dense",
		Why: "Dense baseline, same model, data and length: dense GEMM/im2col path, no masks, CSR or rewire, " +
			"so sparse-kernel changes should not move it; the Fig. 5 denominator; serves its dense models",
		Method: "dense", MinRounds: 3,
		ServeRPS: 100, SLO: 30 * time.Millisecond,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec describes one reported metric. Moves names the end-to-end
// metric (and workload) a per-layer metric is expected to move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
	Moves  string  // per-layer metrics only
}

var endToEnd = []metricSpec{
	{Name: "train_samples_per_s", Unit: "samples/s", Better: "higher", Bound: 0.25},
	{Name: "peak_tape_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "train_loss_final", Unit: "nats", Better: "lower", Bound: 0.05},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "slo_attainment", Unit: "fraction", Better: "higher", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	movesTrain     = "train_samples_per_s (both workloads)"
	movesTrainNDS  = "train_samples_per_s (train-ndsnn only)"
	movesServe     = "latency_ms_p50 (both workloads)"
	movesServeTail = "slo_attainment (both workloads)"
	movesNone      = "predicted near zero on every workload"
)

var perLayer = []metricSpec{
	{Name: "layers.prefix.fwd_ms", Unit: "ms", Better: "lower", Moves: movesTrain},
	{Name: "layers.prefix.bwd_ms", Unit: "ms", Better: "lower", Moves: movesTrain},
	{Name: "layers.conv.fwd_ms", Unit: "ms", Better: "lower", Moves: movesTrain + ": CSR path on train-ndsnn, dense path on train-dense"},
	{Name: "layers.conv.bwd_ms", Unit: "ms", Better: "lower", Moves: movesTrain + ": CSR path on train-ndsnn, dense path on train-dense"},
	{Name: "layers.bn.fwd_ms", Unit: "ms", Better: "lower", Moves: movesTrain},
	{Name: "layers.bn.bwd_ms", Unit: "ms", Better: "lower", Moves: movesTrain},
	{Name: "layers.pool.fwd_ms", Unit: "ms", Better: "lower", Moves: movesTrain},
	{Name: "layers.pool.bwd_ms", Unit: "ms", Better: "lower", Moves: movesTrain},
	{Name: "layers.linear.fwd_ms", Unit: "ms", Better: "lower", Moves: movesTrain},
	{Name: "layers.linear.bwd_ms", Unit: "ms", Better: "lower", Moves: movesTrain},
	{Name: "snn.lif.fwd_ms", Unit: "ms", Better: "lower", Moves: movesTrain},
	{Name: "snn.lif.bwd_ms", Unit: "ms", Better: "lower", Moves: movesTrain},
	{Name: "data.batch_ms", Unit: "ms", Better: "lower", Moves: movesNone},
	{Name: "loss.ms", Unit: "ms", Better: "lower", Moves: movesNone},
	{Name: "layers.zero_grads_ms", Unit: "ms", Better: "lower", Moves: movesNone},
	{Name: "opt.step_ms", Unit: "ms", Better: "lower", Moves: movesNone},
	{Name: "core.rewire_ms", Unit: "ms", Better: "lower", Moves: movesTrainNDS},
	{Name: "core.rewire_rounds", Unit: "count", Better: "lower", Moves: movesTrainNDS},
	{Name: "core.dense_grad_steps", Unit: "count", Better: "lower", Moves: movesTrainNDS},
	{Name: "train.eval_ms", Unit: "ms", Better: "lower", Moves: movesTrain},
	{Name: "train.step_ms", Unit: "ms", Better: "lower", Moves: movesTrain},
	{Name: "sparse.occupancy", Unit: "ratio", Better: "lower", Moves: "explains " + movesTrainNDS},
	{Name: "sparse.event_share", Unit: "ratio", Better: "higher", Moves: "explains " + movesTrainNDS},
	{Name: "sparse.synops_per_sample", Unit: "count", Better: "lower", Moves: "explains " + movesTrainNDS},
	{Name: "layers.weight_density", Unit: "ratio", Better: "lower", Moves: "explains " + movesTrainNDS},
	{Name: "snn.spike_rate", Unit: "ratio", Better: "lower", Moves: "explains " + movesTrainNDS},
	{Name: "tape.peak_mib", Unit: "MiB", Better: "lower", Moves: "peak_tape_mib (both workloads)"},
	{Name: "tensor.pool_tasks_per_step", Unit: "count", Better: "lower", Moves: movesTrain},
	{Name: "tensor.alloc_mib_per_step", Unit: "MiB", Better: "lower", Moves: movesTrain},
	{Name: "infer.prefix_ms", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "infer.conv_ms", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "infer.pool_ms", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "infer.linear_ms", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "infer.lif_ms", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "infer.sample_ms", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "infer.batch_sample_ms", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "infer.synops_per_sample", Unit: "count", Better: "lower", Moves: "latency_ms_p50 (both workloads)"},
	{Name: "infer.scratch_pool_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_ms_p50 (both workloads)"},
	{Name: "serve.latency_ms_p90", Unit: "ms", Better: "lower", Moves: movesServeTail},
	{Name: "serve.capacity_rps", Unit: "req/s", Better: "higher", Moves: "explains latency_ms_p50 (both workloads)"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: movesServeTail},
	{Name: "serve.queue_wait_ms_p99", Unit: "ms", Better: "lower", Moves: movesServeTail},
	{Name: "serve.batch_mean", Unit: "count", Better: "higher", Moves: movesServeTail},
	{Name: "serve.refused", Unit: "count", Better: "lower", Moves: "failure share (slo_attainment)"},
	{Name: "serve.failed", Unit: "count", Better: "lower", Moves: "failure share (slo_attainment)"},
	{Name: "serve.gen_late_ms_p99", Unit: "ms", Better: "lower", Moves: "generator health, not the program"},
	{Name: "trace.untimed_ms", Unit: "ms", Better: "lower", Moves: "check on the trace: step time no span covers"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Moves: "check on the trace: traced over untraced trainer wall time, minus 1"},
	{Name: "trace.loss_drift", Unit: "nats", Better: "lower", Moves: "check on the trace: replay loss minus trainer loss, must be 0"},
}
