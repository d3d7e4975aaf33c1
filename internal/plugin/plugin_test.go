package plugin

import (
	"testing"

	"bytescheduler/internal/allreduce"
	"bytescheduler/internal/core"
	"bytescheduler/internal/engine"
	"bytescheduler/internal/model"
	"bytescheduler/internal/network"
	"bytescheduler/internal/ps"
	"bytescheduler/internal/sim"
)

func TestFrameworkMapping(t *testing.T) {
	if MXNet.HasGlobalBarrier() {
		t.Fatal("MXNet has no barrier")
	}
	if !TensorFlow.HasGlobalBarrier() || !PyTorch.HasGlobalBarrier() {
		t.Fatal("TF/PyTorch have barriers")
	}
	// Vanilla: barrier frameworks gate globally; MXNet per layer.
	if TensorFlow.DependencyMode(false) != engine.GlobalBarrier {
		t.Fatal("vanilla TF must keep the barrier")
	}
	if MXNet.DependencyMode(false) != engine.PerLayer {
		t.Fatal("vanilla MXNet is per-layer")
	}
	// ByteScheduler crosses the barrier everywhere.
	for _, f := range []Framework{MXNet, TensorFlow, PyTorch} {
		if f.DependencyMode(true) != engine.PerLayer {
			t.Fatalf("%v scheduled must be per-layer", f)
		}
	}
}

func TestFrameworkByName(t *testing.T) {
	for name, want := range map[string]Framework{
		"mxnet": MXNet, "MXNet": MXNet,
		"tensorflow": TensorFlow, "tf": TensorFlow,
		"pytorch": PyTorch, "torch": PyTorch,
	} {
		got, err := FrameworkByName(name)
		if err != nil || got != want {
			t.Errorf("FrameworkByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := FrameworkByName("caffe"); err == nil {
		t.Error("unknown framework accepted")
	}
	if Framework(9).String() == "" {
		t.Error("unknown framework must format")
	}
}

// runPS wires sim+fabric+PS+engine+plugin and runs to completion.
func runPS(t *testing.T, m *model.Model, workers, iters int, policy core.Policy) (engine.Result, *PSPlugin, *ps.Cluster) {
	t.Helper()
	se := sim.New()
	fab := network.NewFabric(se, 2*workers, 10, network.RDMA())
	cluster, err := ps.New(se, fab, ps.Config{Workers: workers, Servers: workers, Assignment: ps.SpreadPartitions})
	if err != nil {
		t.Fatal(err)
	}
	plug := NewPS(cluster, m, policy)
	eng, err := engine.New(se, engine.Config{
		Model: m, Workers: workers, Iterations: iters,
		Dependency: engine.PerLayer,
	}, plug)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	se.Run()
	return eng.Result(), plug, cluster
}

func TestPSEndToEnd(t *testing.T) {
	m := model.Synthetic("s", 4, 1<<20, 0.005)
	res, plug, cluster := runPS(t, m, 2, 3, core.ByteScheduler(256<<10, 1<<20))
	if res.Finish <= 0 {
		t.Fatal("run did not complete")
	}
	if cluster.Outstanding() != 0 {
		t.Fatalf("PS leaked %d aggregation entries", cluster.Outstanding())
	}
	// 4 layers x 4 partitions (1MB/256KB) x 3 iterations per worker, per
	// direction.
	for w := 0; w < 2; w++ {
		for dir, sched := range map[string]interface{ Stats() core.Stats }{
			"up": plug.UpScheduler(w), "down": plug.DownScheduler(w),
		} {
			st := sched.Stats()
			if st.SubsStarted != 4*4*3 {
				t.Fatalf("worker %d %s started %d subs, want 48", w, dir, st.SubsStarted)
			}
			if st.SubsStarted != st.SubsFinished {
				t.Fatalf("worker %d %s: %d in flight at end", w, dir, st.SubsStarted-st.SubsFinished)
			}
			// One task per tensor per iteration in both directions: a
			// pull's partitions become ready one by one inside it.
			if st.TasksEnqueued != 4*3 {
				t.Fatalf("worker %d %s enqueued %d tasks, want 12", w, dir, st.TasksEnqueued)
			}
		}
	}
}

// retunePS calls SetParams once, at the first gradient of iteration at.
type retunePS struct {
	*PSPlugin
	at           int
	unit, credit int64
}

func (r *retunePS) GradientReady(worker, layer, iter int, done func()) {
	if iter == r.at && r.at >= 0 {
		r.SetParams(r.unit, r.credit)
		r.at = -1
	}
	r.PSPlugin.GradientReady(worker, layer, iter, done)
}

// The shared partitions follow SetParams: layers announced after it use the
// new unit in both directions.
func TestPSSetParamsRepartitions(t *testing.T) {
	m := model.Synthetic("s", 4, 1<<20, 0.005)
	se := sim.New()
	fab := network.NewFabric(se, 4, 10, network.RDMA())
	cluster, err := ps.New(se, fab, ps.Config{Workers: 2, Servers: 2, Assignment: ps.SpreadPartitions})
	if err != nil {
		t.Fatal(err)
	}
	plug := &retunePS{PSPlugin: NewPS(cluster, m, core.ByteScheduler(256<<10, 1<<20)),
		at: 1, unit: 512 << 10, credit: 1 << 20}
	eng, err := engine.New(se, engine.Config{Model: m, Workers: 2, Iterations: 3, Dependency: engine.PerLayer}, plug)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	se.Run()
	if eng.Result().Finish <= 0 || cluster.Outstanding() != 0 {
		t.Fatalf("run did not complete cleanly: finish %v, %d entries left", eng.Result().Finish, cluster.Outstanding())
	}
	// 4 layers of 4 partitions of 256 KB in iteration 0, then 2 of 512
	// KB in iterations 1 and 2: 48 if the old partitions outlived the
	// change, 24 if it reached back into iteration 0.
	for w := 0; w < 2; w++ {
		for dir, sched := range map[string]*core.Scheduler{"up": plug.UpScheduler(w), "down": plug.DownScheduler(w)} {
			if st := sched.Stats(); st.SubsStarted != 4*4+4*2*2 || st.SubsFinished != st.SubsStarted {
				t.Fatalf("worker %d %s started %d and finished %d subs, want 32", w, dir, st.SubsStarted, st.SubsFinished)
			}
		}
	}
}

func TestPSPriorityPreempts(t *testing.T) {
	// Communication-bound model: under priority scheduling, layer-0
	// partitions must jump over queued later-layer partitions.
	m := model.Synthetic("s", 6, 8<<20, 0.001)
	_, plugBS, _ := runPS(t, m, 2, 3, core.ByteScheduler(1<<20, 2<<20))
	if plugBS.UpScheduler(0).Stats().Preemptions == 0 {
		t.Fatal("ByteScheduler policy recorded no preemptions on a comm-bound model")
	}
	_, plugFIFO, _ := runPS(t, m, 2, 3, core.FIFO())
	if plugFIFO.UpScheduler(0).Stats().Preemptions != 0 {
		t.Fatal("FIFO must never preempt")
	}
}

func TestPSSchedulingBeatsFIFO(t *testing.T) {
	// On a model where communication and computation are comparable the
	// scheduled run must be faster (overlap with the next forward pass).
	m := model.Synthetic("s", 6, 16<<20, 0.080)
	fifo, _, _ := runPS(t, m, 2, 6, core.FIFO())
	bs, _, _ := runPS(t, m, 2, 6, core.ByteScheduler(4<<20, 8<<20))
	tFIFO := fifo.AvgIterTime(1)
	tBS := bs.AvgIterTime(1)
	if tBS >= tFIFO {
		t.Fatalf("ByteScheduler iter %.4fs not faster than FIFO %.4fs", tBS, tFIFO)
	}
}

// runAR wires sim+ring+engine+plugin for all-reduce.
func runAR(t *testing.T, m *model.Model, workers, iters int, policy core.Policy) (engine.Result, *AllReducePlugin, *allreduce.Ring) {
	t.Helper()
	se := sim.New()
	ring, err := allreduce.New(se, workers, 10, network.RDMA())
	if err != nil {
		t.Fatal(err)
	}
	plug := NewAllReduce(ring, m, workers, policy)
	eng, err := engine.New(se, engine.Config{
		Model: m, Workers: workers, Iterations: iters,
		Dependency: engine.PerLayer,
	}, plug)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	se.Run()
	return eng.Result(), plug, ring
}

func TestAllReduceEndToEnd(t *testing.T) {
	m := model.Synthetic("s", 4, 1<<20, 0.005)
	res, plug, ring := runAR(t, m, 4, 3, core.ByteScheduler(512<<10, 2<<20))
	if res.Finish <= 0 {
		t.Fatal("run did not complete")
	}
	if plug.Outstanding() != 0 {
		t.Fatalf("plugin leaked %d pending collectives", plug.Outstanding())
	}
	// 4 layers x 2 partitions x 3 iterations, one collective each.
	if ring.Served() != 4*2*3 {
		t.Fatalf("ring served %d, want 24", ring.Served())
	}
}

func TestAllReduceWaitsForAllWorkers(t *testing.T) {
	// With jitter, workers reach gradient-ready at different times; the
	// collective launches only when the last one arrives and every worker
	// gate opens. Success criterion: the run completes with no leaks.
	m := model.Synthetic("s", 3, 1<<20, 0.004)
	se := sim.New()
	ring, err := allreduce.New(se, 3, 10, network.RDMA())
	if err != nil {
		t.Fatal(err)
	}
	plug := NewAllReduce(ring, m, 3, core.ByteScheduler(1<<20, 4<<20))
	eng, err := engine.New(se, engine.Config{
		Model: m, Workers: 3, Iterations: 4,
		Dependency: engine.PerLayer, Jitter: 0.2, Seed: 11,
	}, plug)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	se.Run()
	if plug.Outstanding() != 0 {
		t.Fatalf("leaked %d collectives", plug.Outstanding())
	}
	if ring.Served() != 3*4 {
		t.Fatalf("served %d, want 12", ring.Served())
	}
}

func TestAllReduceSingleMasterOrder(t *testing.T) {
	// Collectives must execute in one global order decided by the master
	// scheduler; the ring enforces FIFO, so just verify the plugin uses a
	// single scheduler regardless of worker count.
	m := model.Synthetic("s", 2, 1<<20, 0.002)
	_, plug, _ := runAR(t, m, 4, 2, core.ByteScheduler(1<<20, 0))
	st := plug.Scheduler().Stats()
	if st.SubsStarted != 2*2 { // 2 layers x 2 iterations (one partition each)
		t.Fatalf("master scheduler started %d subs, want 4", st.SubsStarted)
	}
}

func TestPSGateOpensOnlyWhenAllPartitionsArrive(t *testing.T) {
	// A single-layer model partitioned 4 ways: the forward pass of the
	// next iteration must wait for all 4 pulls. If the gate opened early,
	// iteration time would undercut the pull time of the full tensor.
	m := model.Synthetic("s", 1, 32<<20, 0.0001)
	res, _, _ := runPS(t, m, 1, 3, core.ByteScheduler(8<<20, 64<<20))
	// Physical lower bound: even with push/pull fully overlapped on the
	// duplex link, the tensor must cross one direction entirely, plus the
	// last partition must come back, at the 10 Gbps RDMA link's goodput
	// (under its cap).
	rdma := network.RDMA()
	minIter := float64(32<<20+8<<20) / (network.GbpsToBytes(10) * rdma.Efficiency)
	if got := res.AvgIterTime(1); got < minIter*0.95 {
		t.Fatalf("iteration %.4fs beats the physical lower bound %.4fs: gate opened early", got, minIter)
	}
}

// recordWatch counts, per GradientReady, whether the layer's last record was
// reused or replaced by a fresh one while it still had unacked partitions,
// and how often each (worker, layer, iteration)'s gate opens.
type recordWatch struct {
	*PSPlugin
	reused, fresh int
	opened        map[[3]int]int
}

func (r *recordWatch) GradientReady(worker, layer, iter int, done func()) {
	last := r.last[worker][layer]
	busy := last != nil && last.unacked > 0
	key := [3]int{worker, layer, iter}
	r.PSPlugin.GradientReady(worker, layer, iter, func() { r.opened[key]++; done() })
	switch now := r.last[worker][layer]; {
	case now == last:
		r.reused++
	case busy:
		r.fresh++
	}
}

// runRecords runs 4 layers of 4 partitions over 2 workers for 4 iterations
// with the given ack delay and checks that every gate opened exactly once,
// that both Cores finished every partition and that the cluster reclaimed
// every aggregation slot.
func runRecords(t *testing.T, ackDelay float64) *recordWatch {
	t.Helper()
	const workers, layers, iters = 2, 4, 4
	m := model.Synthetic("s", layers, 1<<20, 0.005)
	prof := network.RDMA()
	prof.AckDelay = ackDelay
	se := sim.New()
	fab := network.NewFabric(se, 2*workers, 10, prof)
	cluster, err := ps.New(se, fab, ps.Config{Workers: workers, Servers: workers, Assignment: ps.SpreadPartitions})
	if err != nil {
		t.Fatal(err)
	}
	w := &recordWatch{PSPlugin: NewPS(cluster, m, core.ByteScheduler(256<<10, 0)), opened: map[[3]int]int{}}
	eng, err := engine.New(se, engine.Config{Model: m, Workers: workers, Iterations: iters, Dependency: engine.PerLayer}, w)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	se.Run()
	if eng.Result().Finish <= 0 || cluster.Outstanding() != 0 {
		t.Fatalf("ack delay %v: finish %v, %d aggregation slots left", ackDelay, eng.Result().Finish, cluster.Outstanding())
	}
	if len(w.opened) != workers*layers*iters {
		t.Fatalf("ack delay %v: %d gates opened, want %d", ackDelay, len(w.opened), workers*layers*iters)
	}
	for key, n := range w.opened {
		if n != 1 {
			t.Fatalf("ack delay %v: gate (worker, layer, iter) %v opened %d times", ackDelay, key, n)
		}
	}
	for wk := 0; wk < workers; wk++ {
		for dir, s := range map[string]*core.Scheduler{"up": w.UpScheduler(wk), "down": w.DownScheduler(wk)} {
			if st := s.Stats(); st.SubsStarted != layers*4*iters || st.SubsFinished != st.SubsStarted {
				t.Fatalf("ack delay %v: worker %d %s started %d and finished %d partitions, want %d", ackDelay, wk, dir, st.SubsStarted, st.SubsFinished, layers*4*iters)
			}
		}
	}
	return w
}

// A layer's record is reused once its partitions are all acked; a gradient
// that arrives while the last iteration's record still waits for acks (an
// ack delay longer than the compute) gets a fresh record, and both
// iterations' gates open exactly once.
func TestPSRecordReuseAndFallback(t *testing.T) {
	const gradients = 2 * 4 * 4
	if w := runRecords(t, 15e-6); w.reused != gradients-2*4 || w.fresh != 0 {
		t.Fatalf("short ack delay: %d of %d gradients reused their layer's record and %d got a fresh one, want all after the first iteration and none", w.reused, gradients, w.fresh)
	}
	if w := runRecords(t, 0.5); w.fresh != gradients-2*4 || w.reused != 0 {
		t.Fatalf("ack delay above the compute: %d of %d gradients got a fresh record and %d reused one in flight, want all after the first iteration and none", w.fresh, gradients, w.reused)
	}
}
