package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bytescheduler/internal/core"
	"bytescheduler/internal/model"
	"bytescheduler/internal/netps"
	"bytescheduler/internal/network"
	"bytescheduler/internal/plugin"
	"bytescheduler/internal/runner"
)

// workload is one set of inputs the benchmark runs. All four are closed
// loops: a worker's next op waits for the previous one, which is how
// training iterations and PS clients behave.
type workload struct {
	name string
	why  string
	// run does one untraced round: set-up, warm-up, then the measured ops.
	run func(in inputs, sz sizing) round
	// traced does the shorter traced pass and returns per-layer values and
	// the spans it recorded.
	traced func(in inputs, sz sizing, prof *profiler) (map[string]float64, []span, error)
}

var workloads = []workload{
	{"live_ps", "paper's headline setup on the live path: core + netps + runner with real compute to hide communication behind",
		func(in inputs, sz sizing) round { return liveRound(runner.LiveBackendPS, in, sz.livePSIters, sz) },
		func(in inputs, sz sizing, prof *profiler) (map[string]float64, []span, error) {
			return tracedLive(runner.LiveBackendPS, in, sz, prof)
		}},
	{"live_ring", "same inputs over netar with coordinated release: a netps-only change must not move it, a core or runner change moves both",
		func(in inputs, sz sizing) round { return liveRound(runner.LiveBackendRing, in, sz.liveRingIters, sz) },
		func(in inputs, sz sizing, prof *profiler) (map[string]float64, []span, error) {
			return tracedLive(runner.LiveBackendRing, in, sz, prof)
		}},
	{"ps_serve", "256 B push+pull on 8 connections with no scheduler or compute: isolates netps per-message cost, the unexplained loopback gap",
		serveRound, tracedServe},
	{"sim_ps", "VGG16 PS simulation with fine partitions: all work in sim, engine, plugin, ps, network and the synchronous core; no sockets",
		simRound, tracedSim},
}

const (
	liveWorkers     = 2
	livePartition   = 256 << 10
	liveCredit      = 1 << 20
	forwardCompute  = 2 * time.Millisecond
	backwardCompute = 200 * time.Microsecond
	serveFloats     = 64
	// serveClients is 8, not the box's 2 cores: with two requests in
	// flight the server's threads park between messages and throughput
	// follows futex wake-up latency, which on this host flips between 12 k
	// and 30 k ops/s for minutes at a time. With eight the handler pool
	// always has work, the rate is CPU-bound and repeats within 5 %.
	serveClients = 8
)

// baseLayers is the rear-heavy 6-layer model of the live workloads
// (3.875 MB): small tensors at the front, where priority matters, large
// ones at the back, where the backward pass emits first.
var baseLayers = []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 1 << 20, 1 << 20}

// sizing fixes how much work a run does. Work per round is a fixed count
// derived from -seconds (ps_serve is fixed-duration), so a faster program
// finishes sooner instead of being measured on different work.
type sizing struct {
	// smoke is the sub-second sizing of bench_test.go: one round, no
	// host-weather guard, no CPU profile, samples too few for p95.
	smoke bool

	rounds                     int
	livePSIters, liveRingIters int // per round, warm-up included
	liveWarmup                 int
	serveWarm, serveMeasure    time.Duration
	simTrials, simWarmTrials   int
	calibSpins                 int

	tracedLiveIters, compareIters, fifoIters int // warm-up included
	tracedWarmup                             int
	tracedServe                              time.Duration
	tracedSimTrials                          int
	probe                                    time.Duration // budget of one floor or probe loop

	// skewIters is added to the iteration count the live partition check
	// expects. It is 0; bench_test.go sets it to prove that a wrong
	// expected count fails the run.
	skewIters int
}

// newSizing splits -seconds into three rounds. The per-second op rates are
// the measured rates of the 2-core reference box (26.5 ms and 23.3 ms live
// iterations, 90 ms simulator trials), so measured time per round is about
// seconds/3 there. smoke is the sub-second sizing bench_test.go uses.
func newSizing(seconds int, smoke bool) sizing {
	if smoke {
		return sizing{smoke: true, rounds: 1, livePSIters: 6, liveRingIters: 6, liveWarmup: 2,
			serveWarm: 20 * time.Millisecond, serveMeasure: 100 * time.Millisecond,
			simTrials: 1, simWarmTrials: 2,
			tracedLiveIters: 6, compareIters: 5, fifoIters: 5, tracedWarmup: 2,
			tracedServe: 50 * time.Millisecond, tracedSimTrials: 1, probe: 10 * time.Millisecond}
	}
	per := float64(seconds) / 3
	const warm = 20
	return sizing{rounds: 3,
		livePSIters: warm + int(38*per), liveRingIters: warm + int(43*per), liveWarmup: warm,
		serveWarm: 500 * time.Millisecond, serveMeasure: time.Duration(per * float64(time.Second)),
		simTrials: int(11 * per), simWarmTrials: 4, calibSpins: 160_000_000,
		tracedLiveIters: 10 + 8*seconds, compareIters: 10 + 5*seconds, fifoIters: 10 + 3*seconds, tracedWarmup: 5,
		tracedServe: time.Duration(seconds) * time.Second / 10, tracedSimTrials: 2 * seconds,
		probe: time.Duration(seconds) * time.Second / 40}
}

// inputs are everything a workload receives; they are a function of the
// seed alone, and the program under test never sees the seed's meaning.
type inputs struct {
	layers  []int64                 // live_ps, live_ring: gradient bytes per layer
	payload [serveClients][]float32 // ps_serve: one vector per client
	simSeed int64                   // sim_ps: seed of the first trial
}

// makeInputs perturbs each layer by up to ±12.5 % in 4 KB steps while
// holding the total constant (every move takes from one layer what it
// gives to another), draws the ps_serve payloads, and bases the simulator
// trial seeds.
func makeInputs(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	const step = 4 << 10
	layers := append([]int64(nil), baseLayers...)
	for i := 0; i < 64; i++ {
		a, b := rng.Intn(len(layers)), rng.Intn(len(layers))
		if a == b {
			continue
		}
		room := min(layers[a]-(baseLayers[a]-baseLayers[a]/8), (baseLayers[b]+baseLayers[b]/8)-layers[b]) / step
		if room <= 0 {
			continue
		}
		d := (1 + rng.Int63n(room)) * step
		layers[a] -= d
		layers[b] += d
	}
	in := inputs{layers: layers, simSeed: seed}
	for c := range in.payload {
		in.payload[c] = make([]float32, serveFloats)
		for i := range in.payload[c] {
			in.payload[c][i] = float32(rng.Intn(1 << 16))
		}
	}
	return in
}

// round is the outcome of one untraced round of one workload.
type round struct {
	samplesMs      []float64 // measured op times
	measuredS      float64   // wall seconds the samples cover
	setupS         float64   // round start to first measured op
	cpuMs, allocKB float64   // per op
	attempted      int
	failed         int
	err            error // first correctness failure, nil when every check passed
	calib          [2]float64
}

func failedRound(attempted int, err error) round {
	return round{attempted: attempted, failed: attempted, err: err}
}

func liveConfig(backend runner.LiveBackend, layers []int64, iters, warmup int) runner.LiveConfig {
	return runner.LiveConfig{
		Backend: backend, Workers: liveWorkers, LayerBytes: layers,
		Policy:     core.ByteScheduler(livePartition, liveCredit),
		Iterations: iters, Warmup: warmup,
		ForwardCompute: forwardCompute, BackwardCompute: backwardCompute,
	}
}

// subsPerWorkerIter is Σ⌈layer/partition⌉: the partitions one worker's
// scheduler must start and finish in one iteration.
func subsPerWorkerIter(layers []int64, partition int64) uint64 {
	var n uint64
	for _, b := range layers {
		n += uint64((b + partition - 1) / partition)
	}
	return n
}

// checkLiveStats holds RunLive to the exact partition count: every
// partition of every layer started and finished once on every worker.
func checkLiveStats(st core.Stats, layers []int64, iters int) error {
	want := uint64(iters) * liveWorkers * subsPerWorkerIter(layers, livePartition)
	if st.SubsStarted != want || st.SubsFinished != want || st.Failures != 0 {
		return fmt.Errorf("scheduler counters: started %d finished %d failures %d, want %d started and finished",
			st.SubsStarted, st.SubsFinished, st.Failures, want)
	}
	return nil
}

// liveRound is one runner.RunLive call. RunLive owns listen, dial, warm-up
// and teardown, so set-up is the call's wall time minus the measured
// iteration periods, and CPU and allocation are spread over every
// iteration the call ran, warm-up included.
func liveRound(backend runner.LiveBackend, in inputs, iters int, sz sizing) round {
	cfg := liveConfig(backend, in.layers, iters, sz.liveWarmup)
	ops := iters - sz.liveWarmup - 1
	u0 := readUsage()
	res, err := runner.RunLive(cfg)
	u1 := readUsage()
	if err != nil {
		return failedRound(ops, err)
	}
	r := round{attempted: ops}
	for _, s := range res.IterTimes {
		r.samplesMs = append(r.samplesMs, s*1e3)
		r.measuredS += s
	}
	r.setupS = u1.at.Sub(u0.at).Seconds() - r.measuredS
	r.cpuMs = float64(u1.cpu-u0.cpu) / float64(time.Millisecond) / float64(iters)
	r.allocKB = float64(u1.alloc-u0.alloc) / 1024 / float64(iters)
	if err := checkLiveStats(res.Stats, in.layers, iters+sz.skewIters); err != nil {
		r.failed, r.err = 1, err
	}
	return r
}

// serveRig is the ps_serve system under test: one netps server on
// loopback and one client per load-generating connection.
type serveRig struct {
	srv     *netps.Server
	clients [serveClients]*netps.Client
}

func newServeRig() (*serveRig, error) {
	srv, err := netps.NewServer(1)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	rig := &serveRig{srv: srv}
	for c := range rig.clients {
		rig.clients[c] = netps.NewClient(addr, netps.WithClientID(uint32(c+1)))
	}
	return rig, nil
}

func (r *serveRig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	r.srv.Close()
}

// serveOps is what one ps_serve client measured.
type serveOps struct {
	samplesMs []float64
	attempted int
	failed    int
	err       error
}

// serveClient runs push+pull cycles on its own key until end, timing the
// cycles that start at or after from. Every pulled vector must equal the
// pushed one (the server aggregates over one worker); the first element
// changes every cycle so a stale answer cannot pass. tr, when non-nil,
// records a span per call.
func serveClient(c *netps.Client, id int, payload []float32, from, end time.Time, tr *tracer) serveOps {
	var out serveOps
	key := fmt.Sprintf("k%d", id)
	grad := append([]float32(nil), payload...)
	for iter := uint32(0); ; iter++ {
		t0 := time.Now()
		if !t0.Before(end) {
			return out
		}
		grad[0] = float32(iter % (1 << 20))
		root := -1
		if tr != nil {
			root = tr.begin("op", id, int64(iter), -1)
		}
		err := c.Push(key, iter, grad)
		t1 := time.Now()
		var got []float32
		if err == nil {
			got, err = c.Pull(key, iter)
		}
		t2 := time.Now()
		if tr != nil {
			tr.add("netps.push", id, int64(iter), root, t0, t1)
			tr.add("netps.pull", id, int64(iter), root, t1, t2)
			tr.end(root)
		}
		if err == nil && !equalFloats(got, grad) {
			err = fmt.Errorf("client %d iter %d: pulled vector differs from pushed", id, iter)
		}
		if t0.Before(from) {
			if err != nil {
				out.err = err
				return out
			}
			continue
		}
		out.attempted++
		if err != nil {
			out.failed++
			if out.err == nil {
				out.err = err
			}
			continue
		}
		out.samplesMs = append(out.samplesMs, float64(t2.Sub(t0))/float64(time.Millisecond))
	}
}

func equalFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serveLoad drives every client of the rig from now until warm+measure
// and reads process usage at the two edges of the measured window.
func serveLoad(rig *serveRig, in inputs, warm, measure time.Duration, trs []*tracer) (ops [serveClients]serveOps, u0, u1 usage) {
	start := time.Now()
	from, end := start.Add(warm), start.Add(warm+measure)
	var wg sync.WaitGroup
	for c := range rig.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			if trs != nil {
				tr = trs[c]
			}
			ops[c] = serveClient(rig.clients[c], c, in.payload[c], from, end, tr)
		}(c)
	}
	time.Sleep(time.Until(from))
	u0 = readUsage()
	time.Sleep(time.Until(end))
	u1 = readUsage()
	wg.Wait()
	return ops, u0, u1
}

func serveRound(in inputs, sz sizing) round {
	t0 := time.Now()
	rig, err := newServeRig()
	if err != nil {
		return failedRound(1, err)
	}
	defer rig.close()
	ops, u0, u1 := serveLoad(rig, in, sz.serveWarm, sz.serveMeasure, nil)
	r := round{measuredS: u1.at.Sub(u0.at).Seconds(), setupS: u0.at.Sub(t0).Seconds()}
	for _, o := range ops {
		r.samplesMs = append(r.samplesMs, o.samplesMs...)
		r.attempted += o.attempted
		r.failed += o.failed
		if r.err == nil {
			r.err = o.err
		}
	}
	if r.attempted == 0 {
		return failedRound(1, errors.Join(r.err, errors.New("ps_serve: no op completed in the measured window")))
	}
	r.cpuMs = float64(u1.cpu-u0.cpu) / float64(time.Millisecond) / float64(r.attempted)
	r.allocKB = float64(u1.alloc-u0.alloc) / 1024 / float64(r.attempted)
	return r
}

// simConfig is the sim_ps trial: the paper's MXNet PS TCP VGG16 setup on 16
// GPUs with fine partitions, two simulated iterations (one warm-up, one
// measured) with 2 % compute jitter.
func simConfig(m *model.Model, seed int64) runner.Config {
	return runner.Config{
		Model: m, Framework: plugin.MXNet, Arch: runner.PS,
		Transport: network.TCP(), BandwidthGbps: 10, GPUs: 16,
		Policy: core.ByteScheduler(160<<10, 640<<10), Scheduled: true,
		Iterations: 2, Warmup: 1, Jitter: 0.02, Seed: seed,
	}
}

// simTrial runs one trial and checks that every partition the simulated
// schedulers started also finished.
func simTrial(m *model.Model, seed int64) (runner.Result, error) {
	res, err := runner.Run(simConfig(m, seed))
	if err != nil {
		return res, err
	}
	for _, st := range []core.Stats{res.UpStats, res.DownStats} {
		if st.SubsStarted == 0 || st.SubsStarted != st.SubsFinished {
			return res, fmt.Errorf("sim trial seed %d: %d partitions started, %d finished", seed, st.SubsStarted, st.SubsFinished)
		}
	}
	return res, nil
}

// simRound calls runner.Run directly, one trial per op, with no sweep
// cache in between. Set-up builds the model, runs the warm-up trials and
// checks that the first trial repeats bitwise under the same seed.
func simRound(in inputs, sz sizing) round {
	t0 := time.Now()
	m := model.VGG16()
	var first runner.Result
	for i := 0; i < sz.simWarmTrials; i++ {
		res, err := simTrial(m, in.simSeed)
		if err != nil {
			return failedRound(sz.simTrials, err)
		}
		if i == 0 {
			first = res
		} else if res != first {
			return failedRound(sz.simTrials, fmt.Errorf("sim trial seed %d is not deterministic: %+v then %+v", in.simSeed, first, res))
		}
	}
	u0 := readUsage()
	r := round{setupS: u0.at.Sub(t0).Seconds(), attempted: sz.simTrials}
	for i := 0; i < sz.simTrials; i++ {
		t := time.Now()
		_, err := simTrial(m, in.simSeed+int64(i))
		d := time.Since(t)
		if err != nil {
			r.failed++
			if r.err == nil {
				r.err = err
			}
			continue
		}
		r.samplesMs = append(r.samplesMs, float64(d)/float64(time.Millisecond))
	}
	u1 := readUsage()
	r.measuredS = u1.at.Sub(u0.at).Seconds()
	r.cpuMs = float64(u1.cpu-u0.cpu) / float64(time.Millisecond) / float64(sz.simTrials)
	r.allocKB = float64(u1.alloc-u0.alloc) / 1024 / float64(sz.simTrials)
	return r
}
