package main

import (
	"fmt"
	"sync"
	"time"

	"bytescheduler/internal/core"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/model"
	"bytescheduler/internal/netar"
	"bytescheduler/internal/netps"
	"bytescheduler/internal/runner"
	"bytescheduler/internal/tensor"
	"bytescheduler/internal/trace"
)

// The traced drivers below are the benchmark's own copies of runner's live
// wiring, built from public calls only, with a span around each call into a
// layer. They exist because spans inside the program are a later change:
// until then the per-layer numbers come from the benchmark's side of every
// boundary, and runner.vs_driver_x says how far the copy is from RunLive.

// commFn synchronizes one partition and records its spans. sent, when the
// transport calls it, returns the partition's credit before the blocking
// half of the operation (the PS pull), as runner does.
type commFn func(tr *tracer, rank int, op int64, parent int, key string, iter uint32, in, out []float32, sent func()) error

// tracedWorker is one training worker: forward pass gated layer by layer on
// the previous iteration's synchronization, backward pass emitting
// gradients back to front into a core.AsyncScheduler. passEnd holds a
// pass's NotifyReady calls to the end of the backward pass and issues them
// in layer order under an iteration-monotone priority: every ring peer
// then admits in one total order, which is what makes credit safe over
// blocking collectives.
func tracedWorker(rank int, layers []int64, iters int, pol core.Policy, passEnd bool,
	comm commFn, attach func(*core.AsyncScheduler), tr *tracer) (core.Stats, []time.Time, error) {
	sched := core.NewAsync(pol)
	defer sched.Shutdown()
	if attach != nil {
		attach(sched)
	}
	n := len(layers)
	grads, outs, done := make([][]float32, n), make([][]float32, n), make([]chan error, n)
	for l, b := range layers {
		grads[l] = make([]float32, b/4)
		for i := range grads[l] {
			grads[l][i] = float32(rank + 1)
		}
		outs[l] = make([]float32, b/4)
		done[l] = make(chan error, 1)
	}
	starts := make([]time.Time, iters)
	for it := 0; it < iters; it++ {
		starts[it] = time.Now()
		op := int64(it)
		root := tr.begin("iter", rank, op, -1)
		for l := 0; l < n; l++ {
			if it > 0 {
				t0 := time.Now()
				err := <-done[l]
				tr.add("runner.fwd_stall", rank, op, root, t0, time.Now())
				if err != nil {
					return core.Stats{}, nil, fmt.Errorf("iteration %d layer %d: %w", it-1, l, err)
				}
			}
			time.Sleep(forwardCompute)
		}
		tasks := make([]*core.Task, n)
		// ready[l] is written before NotifyReady(tasks[l]) and read by that
		// task's start function, which the scheduler calls only after it.
		ready := make([]time.Time, n)
		for l := n - 1; l >= 0; l-- {
			time.Sleep(backwardCompute)
			l, iter := l, uint32(it)
			grad, out := grads[l], outs[l]
			prio := l
			if passEnd {
				prio = it*n + l
			}
			var mu sync.Mutex
			left, firstErr := -1, error(nil)
			tasks[l] = &core.Task{
				Tensor: tensor.Tensor{Layer: prio, Name: "g", Bytes: layers[l]},
				StartErr: func(sub tensor.Sub, doneFn func(error)) {
					tr.add("core.admit_wait", rank, op, root, ready[l], time.Now())
					lo, hi := sub.Offset/4, (sub.Offset+sub.Bytes)/4
					key := fmt.Sprintf("L%02d[%d/%d]", l, sub.Index, sub.Count)
					credited := false
					err := comm(tr, rank, op, root, key, iter, grad[lo:hi], out[lo:hi], func() {
						credited = true
						doneFn(nil)
					})
					if !credited {
						doneFn(err)
					}
					// The policy has no retry budget, so every partition
					// runs here exactly once and the countdown reaches 0.
					mu.Lock()
					if left < 0 {
						left = sub.Count
					}
					left--
					if err != nil && firstErr == nil {
						firstErr = err
					}
					last, res := left == 0, firstErr
					mu.Unlock()
					if last {
						done[l] <- res
					}
				},
			}
			if err := sched.Enqueue(tasks[l]); err != nil {
				return core.Stats{}, nil, err
			}
			if !passEnd {
				ready[l] = time.Now()
				if err := sched.NotifyReady(tasks[l]); err != nil {
					return core.Stats{}, nil, err
				}
			}
		}
		if passEnd {
			for l := 0; l < n; l++ {
				ready[l] = time.Now()
				if err := sched.NotifyReady(tasks[l]); err != nil {
					return core.Stats{}, nil, err
				}
			}
		}
		tr.end(root)
	}
	for l := 0; l < n; l++ {
		if err := <-done[l]; err != nil {
			return core.Stats{}, nil, fmt.Errorf("final iteration layer %d: %w", l, err)
		}
	}
	want := float32(liveWorkers * (liveWorkers + 1) / 2)
	for l := range outs {
		for i, v := range outs[l] {
			if v != want {
				return core.Stats{}, nil, fmt.Errorf("layer %d[%d] = %v, want %v (aggregation corrupted)", l, i, v, want)
			}
		}
	}
	return sched.Stats(), starts, nil
}

// liveTrace is what one traced live pass produced.
type liveTrace struct {
	spans   []span
	stats   core.Stats // summed over workers
	periods []float64  // worker 0's iteration periods after warm-up, ms
}

// runTracedWorkers starts one tracedWorker per rank and joins them.
func runTracedWorkers(layers []int64, iters, warmup int, pol core.Policy, passEnd bool,
	comm func(rank int) commFn, attach func(rank int) func(*core.AsyncScheduler)) (liveTrace, error) {
	t0 := time.Now()
	trs := make([]*tracer, liveWorkers)
	stats := make([]core.Stats, liveWorkers)
	starts := make([][]time.Time, liveWorkers)
	errs := make([]error, liveWorkers)
	var wg sync.WaitGroup
	for r := 0; r < liveWorkers; r++ {
		trs[r] = newTracer(t0, iters*64)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var at func(*core.AsyncScheduler)
			if attach != nil {
				at = attach(r)
			}
			stats[r], starts[r], errs[r] = tracedWorker(r, layers, iters, pol, passEnd, comm(r), at, trs[r])
		}(r)
	}
	wg.Wait()
	var out liveTrace
	for r, err := range errs {
		if err != nil {
			return out, fmt.Errorf("traced worker %d: %w", r, err)
		}
		out.stats.SubsStarted += stats[r].SubsStarted
		out.stats.SubsFinished += stats[r].SubsFinished
		out.stats.Failures += stats[r].Failures
		out.stats.Preemptions += stats[r].Preemptions
	}
	out.spans = merge(trs)
	for i := warmup; i+1 < iters; i++ {
		out.periods = append(out.periods, float64(starts[0][i+1].Sub(starts[0][i]))/float64(time.Millisecond))
	}
	return out, nil
}

// tracedPSPass wires netps exactly as runner does: one server, one client
// and batcher per worker, the batcher flushed from the scheduler's flush
// hook, credit returned at push-ack before the blocking pull.
func tracedPSPass(layers []int64, iters, warmup int) (liveTrace, error) {
	srv, err := netps.NewServer(liveWorkers)
	if err != nil {
		return liveTrace{}, err
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return liveTrace{}, err
	}
	clients := make([]*netps.Client, liveWorkers)
	batchers := make([]*netps.Batcher, liveWorkers)
	for r := range clients {
		clients[r] = netps.NewClient(addr, netps.WithClientID(uint32(r+1)))
		defer clients[r].Close()
		batchers[r] = netps.NewBatcher(clients[r])
		defer batchers[r].Close()
	}
	comm := func(rank int) commFn {
		client, batcher := clients[rank], batchers[rank]
		return func(tr *tracer, rank int, op int64, parent int, key string, iter uint32, in, out []float32, sent func()) error {
			t0 := time.Now()
			pushed := make(chan error, 1)
			batcher.Push(key, iter, in, func(err error) { pushed <- err })
			err := <-pushed
			t1 := time.Now()
			tr.add("netps.push", rank, op, parent, t0, t1)
			if err != nil {
				return err
			}
			sent()
			sum, err := client.Pull(key, iter)
			tr.add("netps.pull", rank, op, parent, t1, time.Now())
			if err != nil {
				return err
			}
			copy(out, sum)
			return nil
		}
	}
	attach := func(rank int) func(*core.AsyncScheduler) {
		return func(s *core.AsyncScheduler) { s.SetFlushHook(batchers[rank].FlushAsync) }
	}
	return runTracedWorkers(layers, iters, warmup, core.ByteScheduler(livePartition, liveCredit), false, comm, attach)
}

// tracedRingPass wires netar as runner does for a coordinated run: each
// peer listens, dials its successor, and the whole collective holds credit.
func tracedRingPass(layers []int64, iters, warmup int) (liveTrace, error) {
	peers := make([]*netar.Peer, liveWorkers)
	for r := range peers {
		p, err := netar.NewPeer(r, liveWorkers)
		if err != nil {
			return liveTrace{}, err
		}
		defer p.Close()
		if err := p.Listen("127.0.0.1:0"); err != nil {
			return liveTrace{}, err
		}
		peers[r] = p
	}
	for r, p := range peers {
		if err := p.Dial(peers[(r+1)%liveWorkers].Addr()); err != nil {
			return liveTrace{}, err
		}
	}
	comm := func(rank int) commFn {
		peer := peers[rank]
		return func(tr *tracer, rank int, op int64, parent int, key string, iter uint32, in, out []float32, _ func()) error {
			t0 := time.Now()
			sum, err := peer.AllReduce(key, iter, in)
			tr.add("netar.allreduce", rank, op, parent, t0, time.Now())
			if err != nil {
				return err
			}
			copy(out, sum)
			return nil
		}
	}
	return runTracedWorkers(layers, iters, warmup, core.ByteScheduler(livePartition, liveCredit), true, comm, nil)
}

// liveP50 runs RunLive with the given config and returns the median
// iteration period in ms.
func liveP50(cfg runner.LiveConfig) (float64, error) {
	res, err := runner.RunLive(cfg)
	if err != nil {
		return 0, err
	}
	ms := make([]float64, len(res.IterTimes))
	for i, s := range res.IterTimes {
		ms[i] = s * 1e3
	}
	return median(ms), nil
}

// tracedLive is the traced pass of both live workloads: the traced driver
// under the CPU profiler, then three short RunLive runs to place the
// driver against the real runner, the scheduler against FIFO, and
// observability on against off, then the floors.
func tracedLive(backend runner.LiveBackend, in inputs, sz sizing, prof *profiler) (map[string]float64, []span, error) {
	warmup := sz.tracedWarmup
	pass, callName := tracedPSPass, "netps.push"
	if backend == runner.LiveBackendRing {
		pass, callName = tracedRingPass, "netar.allreduce"
	}
	var lt liveTrace
	v, err := prof.measure(func() (err error) {
		lt, err = pass(in.layers, sz.tracedLiveIters, warmup)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	workerIters := float64(sz.tracedLiveIters * liveWorkers)
	subs := subsPerWorkerIter(in.layers, livePartition)
	if lt.stats.SubsStarted != lt.stats.SubsFinished || lt.stats.SubsStarted != uint64(workerIters)*subs {
		return nil, nil, fmt.Errorf("traced driver: %d partitions started, %d finished, want %d",
			lt.stats.SubsStarted, lt.stats.SubsFinished, uint64(workerIters)*subs)
	}
	v["core.subs_per_op"] = float64(lt.stats.SubsStarted) / workerIters
	v["core.preemptions_per_op"] = float64(lt.stats.Preemptions) / workerIters
	admit := durations(lt.spans, "core.admit_wait")
	v["core.admit_wait_ms_per_op"] = total(admit) / 1e3 / workerIters
	v["core.admit_wait_us_p50"] = pct(admit, 50)
	v["core.admit_wait_us_p95"] = pct(admit, 95)
	v["runner.fwd_stall_ms_per_op"] = total(durations(lt.spans, "runner.fwd_stall")) / 1e3 / workerIters

	// Bytes a worker moves per iteration through the timed call, over the
	// time that call was busy on worker 0.
	var iterBytes int64
	for _, b := range in.layers {
		iterBytes += b
	}
	mbs := float64(iterBytes) * float64(sz.tracedLiveIters) / 1e6 / busySeconds(lt.spans, callName, 0)
	floorMBs := floorTCPMBs(sz.probe)
	v["floor.tcp_mb_s"] = floorMBs
	if backend == runner.LiveBackendPS {
		netpsCalls(v, lt.spans, workerIters)
		v["netps.push_mb_s"] = mbs
		v["netps.bytes_over_floor_x"] = floorMBs / mbs
	} else {
		ar := durations(lt.spans, "netar.allreduce")
		v["netar.allreduce_us_p50"] = pct(ar, 50)
		v["netar.allreduce_us_p95"] = pct(ar, 95)
		v["netar.calls_per_op"] = float64(len(ar)) / workerIters
		v["netar.mb_s"] = mbs
		v["netar.bytes_over_floor_x"] = floorMBs / mbs
	}

	cfg := liveConfig(backend, in.layers, sz.compareIters, warmup)
	plain, err := liveP50(cfg)
	if err != nil {
		return nil, nil, err
	}
	fifo := liveConfig(backend, in.layers, sz.fifoIters, warmup)
	fifo.Policy = runner.LiveFIFO()
	fifoP50, err := liveP50(fifo)
	if err != nil {
		return nil, nil, err
	}
	obs := cfg
	obs.Metrics, obs.Trace = metrics.NewRegistry(), trace.NewWall(trace.New())
	obsP50, err := liveP50(obs)
	if err != nil {
		return nil, nil, err
	}
	v["runner.vs_driver_x"] = plain / median(lt.periods)
	v["runner.sched_speedup_x"] = fifoP50 / plain
	v["runner.obs_overhead_x"] = obsP50 / plain
	v["floor.compute_ms"] = floorCompute(len(in.layers), sz.probe)
	v["runner.exposed_comm_ms"] = plain - v["floor.compute_ms"]
	v["core.async_null_sub_us"] = probeAsyncNullSub(sz.probe)
	return v, lt.spans, nil
}

// netpsCalls fills the netps call metrics from the push and pull spans.
func netpsCalls(v map[string]float64, spans []span, ops float64) {
	push, pull := durations(spans, "netps.push"), durations(spans, "netps.pull")
	for _, p := range []float64{50, 95, 99} {
		v[fmt.Sprintf("netps.push_us_p%g", p)] = pct(push, p)
		v[fmt.Sprintf("netps.pull_us_p%g", p)] = pct(pull, p)
	}
	v["netps.calls_per_op"] = float64(len(push)+len(pull)) / ops
}

// tracedServe is the ps_serve loop with a span around every Push and Pull,
// then the raw-TCP round-trip floor it is compared against.
func tracedServe(in inputs, sz sizing, prof *profiler) (map[string]float64, []span, error) {
	rig, err := newServeRig()
	if err != nil {
		return nil, nil, err
	}
	defer rig.close()
	t0 := time.Now()
	trs := make([]*tracer, serveClients)
	for c := range trs {
		trs[c] = newTracer(t0, 1<<16)
	}
	var ops [serveClients]serveOps
	var u0, u1 usage
	var goroutines int64
	v, err := prof.measure(func() error {
		ops, u0, u1 = serveLoad(rig, in, sz.serveWarm/4, sz.tracedServe, trs)
		goroutines = rig.srv.Goroutines()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	done := 0
	for _, o := range ops {
		if o.err != nil {
			return nil, nil, o.err
		}
		done += len(o.samplesMs)
	}
	spans := merge(trs)
	netpsCalls(v, spans, float64(len(durations(spans, "op"))))
	v["netps.server_goroutines"] = float64(goroutines)
	// Every client has pulled everything it pushed, so every aggregation
	// entry should be reclaimed by now (ROADMAP item 0).
	v["netps.outstanding_after_drain"] = float64(rig.srv.Outstanding())
	v["floor.tcp_rtt_per_s"] = floorTCPRtt(sz.probe)
	opsPerS := float64(done) / u1.at.Sub(u0.at).Seconds()
	v["netps.rtt_over_floor_x"] = v["floor.tcp_rtt_per_s"] / (2 * opsPerS)
	return v, spans, nil
}

// tracedSim times runner.Run per trial (from outside there is nothing
// finer), then probes the simulator layers used differently: the bare
// event engine, the synchronous scheduler, the analytic ring model, the
// cluster fluid model, and the codecs no workload puts on the wire yet.
func tracedSim(in inputs, sz sizing, prof *profiler) (map[string]float64, []span, error) {
	m := model.VGG16()
	tr := newTracer(time.Now(), sz.tracedSimTrials)
	var subs uint64
	v, err := prof.measure(func() error {
		for i := 0; i < sz.tracedSimTrials; i++ {
			id := tr.begin("runner.Run", 0, int64(i), -1)
			res, err := simTrial(m, in.simSeed+int64(i))
			tr.end(id)
			if err != nil {
				return err
			}
			subs += res.UpStats.SubsStarted + res.DownStats.SubsStarted
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	trialUs := durations(tr.spans, "runner.Run")
	v["runner.subs_per_op"] = float64(subs) / float64(sz.tracedSimTrials)
	v["runner.us_per_sub"] = total(trialUs) / float64(subs)
	v["sim.null_event_ns"] = probeSimNullEvent(sz.probe)
	v["core.sync_null_sub_ns"] = probeSyncNullSub(sz.probe)
	if v["allreduce.trial_ms"], err = probeAllReduceTrial(m, in.simSeed); err != nil {
		return nil, nil, err
	}
	if v["cluster.scenario_ms"], err = probeClusterScenario(in.simSeed); err != nil {
		return nil, nil, err
	}
	probeCodecs(sz.probe, v)
	return v, tr.spans, nil
}

func total(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// pct is percentile for the traced pass, where a sample too small for the
// asked percentile (the smoke sizing) reads 0 rather than failing the run.
func pct(xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}
