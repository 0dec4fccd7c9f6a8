package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ndsnn/internal/bench"
	"ndsnn/internal/metrics"
	"ndsnn/internal/obs"
	"ndsnn/internal/serve"
)

// probeRounds is how many rounds the traced run's engine probe makes.
const probeRounds = 40

// Seeds of the serving windows' random streams, kept apart from the trainer
// calls' sub-seeds.
func arrivalSeed(seed uint64, round int) uint64 { return (seed^0x5eed0a11)*7919 + uint64(round) }
func clientSeed(seed uint64, round int) uint64  { return (seed^0xc11e47)*7907 + uint64(round)*64 }

const trainGate = "training loss and parameters finite, sparsity at target"

// rounds is what a run's rounds measured.
type rounds struct {
	calls  []trainCall
	setups []float64
	open   []openLoopSummary
	closed []closedWindow
	// The servers of every open-loop and closed-loop window, drained.
	openD, closedD []drained
	// reqs and starts keep every open-loop request for the trace.
	reqs   [][]request
	starts []time.Time
	// first is the servable of the first round.
	first *servable
}

// runRounds runs rounds for total seconds, and at least atLeast and the
// workload's MinRounds rounds. Each round serves the model its own trainer
// call trained, so that the serving figures, like the training ones, cover
// several models of the seed. srvCfg configures the
// open-loop servers; closedAll runs a closed-loop window in every round,
// not only the first; engReg, when non-nil, turns on the first served
// engine's telemetry.
func runRounds(w workload, seed uint64, total float64, atLeast int, closedAll bool, srvCfg serve.Config, engReg *obs.Registry, rep *report) (*rounds, error) {
	s := benchScale()
	rs := &rounds{}
	fail := func(err error) (*rounds, error) {
		rep.check(trainGate, false, "%v", err)
		return nil, err
	}
	start := time.Now()
	var last time.Duration
	for round := 0; ; round++ {
		if round >= atLeast && round >= w.MinRounds &&
			time.Since(start)+last > time.Duration(total*float64(time.Second)) {
			break
		}
		r0 := time.Now()
		// Set-up is building the call's data and network.
		in := newInput(s, subSeed(seed, round))
		rs.setups = append(rs.setups, in.setup.Seconds())
		c, err := runTrainer(s, w.Method, in)
		if err != nil {
			return fail(err)
		}
		rs.calls = append(rs.calls, c)
		sv, err := newServable(in.net, in.ds)
		if err != nil {
			return fail(err)
		}
		if round == 0 {
			rs.first = sv
			if engReg != nil {
				sv.eng.EnableTelemetry(engReg, -1)
			}
		}
		openSrv := serve.New(sv.eng, srvCfg)
		reqs, t0 := openWindow(openSrv, sv, w.ServeRPS, windowRequests, arrivalSeed(seed, round))
		rs.openD = append(rs.openD, drain(openSrv))
		rs.reqs, rs.starts = append(rs.reqs, reqs), append(rs.starts, t0)
		rs.open = append(rs.open, summarizeOpenLoop(reqs, w.SLO, isRefusal))

		if round == 0 || closedAll {
			closedSrv := serve.New(sv.eng, serve.Config{})
			rs.closed = append(rs.closed, runClosedWindow(closedSrv, sv, runtime.GOMAXPROCS(0), closedWindowDur, clientSeed(seed, round)))
			rs.closedD = append(rs.closedD, drain(closedSrv))
		}
		last = time.Since(r0)
	}
	rep.check(trainGate, true, "%d trainer calls", len(rs.calls))
	return rs, nil
}

// trainMetrics reports the end-to-end training figures. Throughput is the
// upper quartile over the calls after the first, which warms the process
// (allocator, worker pool) and runs about a sixth slower: on a shared host
// other tenants' load slows whole stretches of calls by up to half, and the
// upper quartile moves only when three quarters of a run's calls slow down.
// Loss is the mean and peak tape the first quartile over the first
// MinRounds calls, which depend on the seed alone. A model's tape peak
// jumps two to three times when one layer's spike rate crosses the
// event-encoding threshold in a single batch, which about a third of the
// models do; over ten seeds the median of five peaks spread by more than a
// third of its median, the first quartile by less than a tenth.
func trainMetrics(w workload, calls []trainCall, rep *report) {
	n := w.MinRounds
	var tput, loss, peak []float64
	for i, c := range calls {
		if i > 0 {
			tput = append(tput, c.samplesPerS())
		}
		if i < n {
			loss = append(loss, c.finalLoss())
			peak = append(peak, c.peakMiB())
		}
		rep.logf("trainer call %d: %d samples in %.3fs = %.1f samples/s, final loss %.4f, peak tape %.3f MiB, test acc %.3f, sparsity %.4f",
			i, c.samples, c.wall.Seconds(), c.samplesPerS(), c.finalLoss(), c.peakMiB(), c.res.TestAcc, c.res.FinalSparsity)
		rep.Attempted += int64(c.steps())
	}
	_, q3 := quartiles(tput)
	rep.set("train_samples_per_s", q3)
	rep.set("train_loss_final", mean(loss))
	q1, _ := quartiles(peak)
	rep.set("peak_tape_mib", q1)
}

// checkServing records the serving gates of one phase's drained servers.
func checkServing(phase string, wrong int64, ds []drained, rep *report) {
	rep.check(phase+": every answer bit-identical to serial Engine.Infer", wrong == 0, "%d mismatches", wrong)
	var sum serve.Stats
	ok := true
	for _, d := range ds {
		ok = ok && d.conserved()
		sum.Admitted += d.stats.Admitted
		sum.Served += d.stats.Served
		sum.ExpiredInQueue += d.stats.ExpiredInQueue
		sum.ExpiredInFlight += d.stats.ExpiredInFlight
		sum.Failed += d.stats.Failed
	}
	rep.check(phase+": admitted == served + expired + failed after drain", ok,
		"%d servers: admitted %d served %d expired %d failed %d", len(ds), sum.Admitted, sum.Served, sum.Expired(), sum.Failed)
}

// serveMetrics reports the serving windows. Latency is the lower quartile
// over the open-loop windows' p50s, for the same reason throughput is an
// upper quartile; p90 and attainment are medians over the windows, and
// capacity the median over the closed-loop windows. Capacity is per-layer,
// not end to end: an NDSNN model trained for 15 steps serves at 500 to 1650
// req/s depending on how much its layers fire, and the median over a run's
// models spread by a quarter of its median between seeds.
func serveMetrics(w workload, rs *rounds, rep *report) {
	var p50, p90, att, late, capy []float64
	var wrong, cwrong int64
	supported := true
	for i, o := range rs.open {
		rep.logf("round %d: open loop %d sent at %.0f req/s, %d refused %d failed %d wrong; p50 %.3f ms, p90 %.3f ms, p%g %.3f ms, SLO %.0f ms attained by %.4f, generator late p%g %.3f ms",
			i, o.Sent, w.ServeRPS, o.Refused, o.Failed, o.Wrong, o.P50, o.P90, o.TailP, o.Tail, ms(w.SLO), o.Attainment, o.TailP, o.GenLateTail)
		p50 = append(p50, o.P50)
		p90 = append(p90, o.P90)
		att = append(att, o.Attainment)
		supported = supported && o.TailP >= 90
		wrong += int64(o.Wrong)
		for _, r := range rs.reqs[i] {
			late = append(late, ms(r.sent-r.due))
		}
		rep.Attempted += int64(o.Sent)
		rep.Failed += int64(o.Refused + o.Failed + o.Wrong)
	}
	for i, c := range rs.closed {
		rep.logf("closed loop %d: %d clients, %.1f req/s, %d errors %d wrong", i, runtime.GOMAXPROCS(0), c.capacity(), c.errs, c.wrong)
		capy = append(capy, c.capacity())
		cwrong += c.wrong
		rep.Attempted += c.answered + c.errs + c.wrong
		rep.Failed += c.errs + c.wrong
	}
	checkServing("open loop", wrong, rs.openD, rep)
	checkServing("closed loop", cwrong, rs.closedD, rep)
	rep.check("open loop: every window supports p90 (10 samples beyond it)", supported, "%d windows of %d requests", len(rs.open), windowRequests)
	q1, _ := quartiles(p50)
	rep.setIf("latency_ms_p50", q1)
	rep.setIf("serve.latency_ms_p90", median(p90))
	rep.setIf("slo_attainment", median(att))
	rep.setIf("serve.capacity_rps", median(capy))
	// The generator's lateness is pooled over the run's windows, so its
	// tail reaches p99 once four windows ran.
	lateP, _ := tailPercentile(len(late))
	rep.setIf("serve.gen_late_ms_p99", percentile(sortedCopy(late), lateP))
	rep.logf("generator late p%g over %d requests: %.3f ms", lateP, len(late), percentile(sortedCopy(late), lateP))
}

func runUntraced(w workload, seed uint64, total float64, rep *report) error {
	rs, err := runRounds(w, seed, total, 0, false, serve.Config{}, nil, rep)
	if err != nil {
		return err
	}
	trainMetrics(w, rs.calls, rep)
	rep.set("setup_s", median(rs.setups))
	rep.logf("set-up: %d times, median %.4fs", len(rs.setups), median(rs.setups))
	serveMetrics(w, rs, rep)
	return nil
}

// runTraced replays the workload's first trainer call with spans around
// every call into the program, serves that call's model with the program's
// telemetry on, probes the engine, and reports the per-layer metrics.
func runTraced(w workload, seed uint64, rep *report, outDir string) error {
	s := benchScale()
	tr := newTracer()

	// The first round trains the reference model and serves it with the
	// program's telemetry on.
	engReg, srvReg := obs.New(), obs.New()
	rs, err := runRounds(w, seed, 0, tracedRounds, true, serve.Config{Metrics: srvReg}, engReg, rep)
	if err != nil {
		return err
	}
	sv := rs.first

	// The replay trains a second, identical network on the reference call's
	// inputs.
	in := newInput(s, subSeed(seed, 0))
	rp, err := replayTrainer(s, w.Method, in, tr)
	if err != nil {
		rep.check(trainGate, false, "replay: %v", err)
		return err
	}
	if err := checkTrained(w.Method, rp.history, in.net); err != nil {
		rep.check(trainGate, false, "replay: %v", err)
	}
	rep.Attempted += int64(rp.steps)
	for _, c := range rs.calls {
		rep.Attempted += int64(c.steps())
	}
	ref := rs.calls[0]
	drift := lossDrift(rp.history, ref.res.History)
	rep.check("trace.loss_drift is exactly 0", drift == 0, "replay vs trainer per-epoch loss, max |diff| %g", drift)
	trainLayerMetrics(tr.snapshot(), rp, ref, sv.eng.DenseMACsPerTimestep(), rep)
	if err := fig5(s, w.Method, ref, seed, rep); err != nil {
		return err
	}

	serveMetrics(w, rs, rep)
	var first int64
	for i, reqs := range rs.reqs {
		addRequestSpans(tr, reqs, rs.starts[i], first)
		first += int64(len(reqs))
	}
	qw := srvReg.Snapshot().Hist("serve_queue_wait_ns")
	if qw == nil {
		return fmt.Errorf("serving telemetry has no serve_queue_wait_ns histogram")
	}
	rep.set("serve.queue_wait_ms_p50", float64(qw.Quantile(0.50))/1e6)
	rep.set("serve.queue_wait_ms_p99", float64(qw.Quantile(0.99))/1e6)
	var batches, batched, refused, failed int64
	for _, d := range rs.openD {
		st := d.stats
		batches += st.Batches
		batched += st.BatchedSamples
		refused += st.Rejected + st.Shed + st.Invalid
		failed += st.Failed + st.Expired()
	}
	rep.set("serve.batch_mean", float64(batched)/math.Max(1, float64(batches)))
	rep.set("serve.refused", float64(refused))
	rep.set("serve.failed", float64(failed))

	p := probeEngine(sv, probeRounds, tr)
	rep.check("engine probe: every answer bit-identical to serial Engine.Infer", p.wrong == 0, "%d mismatches", p.wrong)
	for _, g := range []string{"infer.prefix", "infer.conv", "infer.pool", "infer.linear", "infer.lif"} {
		rep.set(g+"_ms", p.stageMs[g])
	}
	rep.set("infer.sample_ms", p.sampleMs)
	rep.set("infer.batch_sample_ms", p.batchMs)
	rep.set("infer.synops_per_sample", p.synOpsSample)
	es := engReg.Snapshot()
	hit, miss := es.Counter("infer_scratch_pool_hit_total"), es.Counter("infer_scratch_pool_miss_total")
	rep.set("infer.scratch_pool_hit_ratio", float64(hit)/math.Max(1, float64(hit+miss)))
	rep.logf("engine probe over %d rounds of batch %d: Infer %.3f ms/sample, InferBatch %.3f ms/sample; per sample prefix %.3f conv %.3f lif %.3f pool %.3f linear %.3f ms",
		probeRounds, probeBatch, p.sampleMs, p.batchMs, p.stageMs["infer.prefix"], p.stageMs["infer.conv"],
		p.stageMs["infer.lif"], p.stageMs["infer.pool"], p.stageMs["infer.linear"])

	path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	spans := tr.snapshot()
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	rep.logf("spans: %d written to %s", len(spans), path)
	return nil
}

// trainLayerMetrics derives the training per-layer metrics from the
// replay's spans (self times averaged per step) and counters.
func trainLayerMetrics(spans []span, rp *replayResult, ref trainCall, denseMACs int64, rep *report) {
	self := selfByName(spans)
	steps := float64(rp.steps)
	for _, k := range []string{"layers.prefix", "layers.conv", "layers.bn", "layers.pool", "layers.linear", "snn.lif"} {
		rep.set(k+".fwd_ms", self[k+".fwd"]/steps)
		rep.set(k+".bwd_ms", self[k+".bwd"]/steps)
	}
	rep.set("data.batch_ms", self["data.batch"]/steps)
	rep.set("loss.ms", self["loss"]/steps)
	rep.set("layers.zero_grads_ms", self["layers.zero_grads"]/steps)
	rep.set("opt.step_ms", self["opt.step"]/steps)
	rep.set("core.rewire_ms", self["core.rewire"]/steps)
	rep.set("trace.untimed_ms", self["train.step"]/steps)
	var stepMs, evalMs float64
	for _, sp := range spans {
		switch sp.Name {
		case "train.step":
			stepMs += ms(time.Duration(sp.End - sp.Start))
		case "train.eval":
			evalMs += ms(time.Duration(sp.End - sp.Start))
		}
	}
	rep.set("train.step_ms", stepMs/steps)
	rep.set("train.eval_ms", evalMs)
	rep.set("core.rewire_rounds", float64(rp.rewireRounds))
	rep.set("core.dense_grad_steps", float64(rp.denseGradSteps))

	last := rp.history[len(rp.history)-1]
	rep.set("sparse.occupancy", rp.lastEvents.Occupancy())
	rep.set("sparse.event_share", rp.lastEvents.EventCoverage())
	rep.set("layers.weight_density", rp.density)
	rep.set("snn.spike_rate", last.SpikeRate)
	rep.set("sparse.synops_per_sample", metrics.MeasuredSynOps(denseMACs, rp.density, rp.lastEvents, timesteps))
	var peak int64
	for _, h := range rp.history {
		if h.PeakCacheBytes > peak {
			peak = h.PeakCacheBytes
		}
		rep.logf("replay epoch %d: loss %.6f (trainer %.6f), spike rate %.4f, occupancy %.4f, sparsity %.4f, peak tape %.3f MiB",
			h.Epoch, h.Loss, ref.res.History[h.Epoch].Loss, h.SpikeRate, h.Occupancy, h.Sparsity, float64(h.PeakCacheBytes)/(1<<20))
	}
	rep.set("tape.peak_mib", float64(peak)/(1<<20))
	rep.set("tensor.pool_tasks_per_step", float64(rp.poolTasks)/steps)
	rep.set("tensor.alloc_mib_per_step", float64(rp.allocBytes)/(1<<20)/steps)
	overhead := rp.wall.Seconds()/ref.wall.Seconds() - 1
	rep.set("trace.overhead", overhead)
	rep.set("trace.loss_drift", lossDrift(rp.history, ref.res.History))
	rep.logf("trace: replay %.3fs vs trainer %.3fs (overhead %+.2f%%), %.3f ms/step untimed of %.3f ms/step",
		rp.wall.Seconds(), ref.wall.Seconds(), 100*overhead, self["train.step"]/steps, stepMs/steps)
}

// fig5 prints the measured Fig. 5 readout: NDSNN over Dense wall-clock cost
// per training sample, next to the analytic Sec. IV-C cost
// (metrics.RelativeTrainingCost) computed on the same two runs'
// trajectories. ref is the workload's own call; the other method trains on
// the same data, initialisation and length.
func fig5(s bench.Scale, method string, ref trainCall, seed uint64, rep *report) error {
	other := bench.MethodDense
	if method == bench.MethodDense {
		other = bench.MethodNDSNN
	}
	oc, err := runTrainer(s, other, newInput(s, subSeed(seed, 0)))
	if err != nil {
		return err
	}
	rep.Attempted += int64(oc.steps())
	nd, dn := ref, oc
	if method == bench.MethodDense {
		nd, dn = oc, ref
	}
	measured := (nd.wall.Seconds() / float64(nd.samples)) / (dn.wall.Seconds() / float64(dn.samples))
	analytic, err := metrics.RelativeTrainingCost(nd.res.Trajectory, dn.res.Trajectory)
	if err != nil {
		return err
	}
	rep.logf("fig5: NDSNN/Dense measured wall-clock cost per sample %.4f (%.3f vs %.3f ms/sample); analytic RelativeTrainingCost %.4f",
		measured, 1e3*nd.wall.Seconds()/float64(nd.samples), 1e3*dn.wall.Seconds()/float64(dn.samples), analytic)
	return nil
}
