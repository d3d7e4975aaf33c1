package runner

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/core"
	"bytescheduler/internal/netar"
)

// TestLivePipelineValidation: the one live pipeline (Fuser → scheduler)
// refuses a priority strategy it does not know.
func TestLivePipelineValidation(t *testing.T) {
	cfg := liveBase(LiveBackendPS)
	cfg.Priority = core.PriorityPolicy(99)
	if err := cfg.validate(); err == nil {
		t.Fatal("unknown priority policy accepted")
	}
}

// ringEvent is one control event a ring peer's coordinator saw: its own
// gradient of a task in (OpReady) or a partition's admission, which it
// starts (OpAdmit).
type ringEvent struct {
	rank int
	m    netar.Control
}

// runRecordedRing runs cfg's ring workers the way RunLive does, with
// worker slow's backward pass three times slower, and returns every
// peer's control events in one log, in the order they happened.
func runRecordedRing(t *testing.T, cfg LiveConfig, slow int) []ringEvent {
	t.Helper()
	ranks, err := cfg.priorityRanks()
	if err != nil {
		t.Fatal(err)
	}
	peers, teardown, err := dialRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	var mu sync.Mutex
	var log []ringEvent
	starts, exposed := make([]time.Time, cfg.Iterations), make([]float64, cfg.Iterations)
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for r, peer := range peers {
		ring := newRingCoord(peer, r, len(peers), func(m netar.Control) {
			mu.Lock()
			log = append(log, ringEvent{r, m})
			mu.Unlock()
		})
		c := cfg
		if r == slow {
			c.BackwardCompute *= 3
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[r] = liveWorker(c, r, ranks, ringComm(peer), ring, nil, starts, exposed)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", r, err)
		}
	}
	return log
}

// checkOneAdmissionOrder asserts the master Core's two promises on a
// recorded ring: every peer starts its collectives in one identical
// sequence, rank 0's, and rank 0 admits no partition of a task before
// every peer's gradient of it is in.
func checkOneAdmissionOrder(t *testing.T, log []ringEvent, workers int) {
	t.Helper()
	type task struct {
		iter uint32
		id   uint16
	}
	ready := map[task]int{}
	starts := make([][]netar.Control, workers)
	for _, e := range log {
		k := task{e.m.Iter, e.m.Task}
		switch e.m.Op {
		case netar.OpReady:
			ready[k]++
		case netar.OpAdmit:
			if e.rank == 0 && ready[k] < workers {
				t.Fatalf("rank 0 admitted partition %d/%d of task %d of iteration %d with %d of %d peers ready",
					e.m.Part, e.m.Parts, e.m.Task, e.m.Iter, ready[k], workers)
			}
			starts[e.rank] = append(starts[e.rank], e.m)
		}
	}
	if len(starts[0]) == 0 {
		t.Fatal("rank 0 admitted nothing")
	}
	for r := 1; r < workers; r++ {
		if !slices.Equal(starts[r], starts[0]) {
			t.Fatalf("rank %d started %d collectives in another sequence than rank 0's %d:\n%v\n%v",
				r, len(starts[r]), len(starts[0]), starts[r], starts[0])
		}
	}
}

// TestRingMasterCoreOneAdmissionOrder is the master Core's gate on a
// 3-peer ring whose worker 2 runs its backward pass three times slower,
// with fusion off and on: every peer starts its collectives in rank 0's
// one sequence, rank 0 never admits a task before every peer reported it
// ready, and every worker's per-layer sums check out (liveWorker).
func TestRingMasterCoreOneAdmissionOrder(t *testing.T) {
	for _, theta := range []int64{0, 4 << 10} {
		cfg := liveBase(LiveBackendRing)
		cfg.LayerBytes = fusedLayers
		cfg.FuseTheta = theta
		cfg.Iterations, cfg.Warmup = 6, 1
		checkOneAdmissionOrder(t, runRecordedRing(t, cfg, 2), cfg.Workers)
	}
}

// TestLivePriorityMakesRingCoordinated: a priority strategy on the ring is
// rank 0's alone. Under random ranks and a one-partition credit every peer
// still starts the collectives in rank 0's sequence, which differs from
// the emission order.
func TestLivePriorityMakesRingCoordinated(t *testing.T) {
	cfg := liveBase(LiveBackendRing)
	cfg.Policy = core.ByteScheduler(8<<10, 8<<10)
	cfg.Priority = core.PriorityRandom
	checkOneAdmissionOrder(t, runRecordedRing(t, cfg, 1), cfg.Workers)
}

// TestRunLivePriorityPolicies runs every priority strategy end-to-end on
// both backends: the rank table must flow through scheduling and key
// construction without corrupting aggregation (the worker verifies sums).
func TestRunLivePriorityPolicies(t *testing.T) {
	for _, backend := range []LiveBackend{LiveBackendPS, LiveBackendRing} {
		for _, prio := range []core.PriorityPolicy{core.PriorityLayer, core.PriorityCriticalPath, core.PriorityRandom} {
			cfg := liveBase(backend)
			cfg.Workers = 2
			cfg.Priority = prio
			res, err := RunLive(cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", backend, prio, err)
			}
			if res.Stats.SubsFinished == 0 {
				t.Fatalf("%v/%v: no sub-tasks finished", backend, prio)
			}
		}
	}
}

// TestRunLivePipelinedRingAnyCredit is the deadlock gate of the ring's
// master Core: gradients stream to rank 0's scheduler as the backward pass
// makes them ready, and it must complete at any credit — a 1-byte window
// (head-only admission), a single partition, effectively unlimited — with
// peer skew putting two iterations in flight at the transport. Random
// priorities are the adversarial case (maximally divergent from emission
// order), and the worker's aggregation check catches any cross-iteration
// frame mixing.
func TestRunLivePipelinedRingAnyCredit(t *testing.T) {
	for _, credit := range []int64{1, 8 << 10, 1 << 30} {
		cfg := liveBase(LiveBackendRing)
		cfg.Policy = core.ByteScheduler(8<<10, credit)
		cfg.Priority = core.PriorityRandom
		cfg.Iterations, cfg.Warmup = 8, 1
		res, err := RunLive(cfg)
		if err != nil {
			t.Fatalf("credit %d: %v", credit, err)
		}
		want := uint64(0)
		for _, b := range cfg.LayerBytes {
			want += uint64(cfg.Iterations*cfg.Workers) * uint64((b+cfg.Policy.PartitionUnit-1)/cfg.Policy.PartitionUnit)
		}
		if res.Stats.SubsStarted != want || res.Stats.SubsFinished != want {
			t.Fatalf("credit %d: %d partitions started, %d finished, want %d on every worker",
				credit, res.Stats.SubsStarted, res.Stats.SubsFinished, want)
		}
	}
}

// TestRunLivePipelineOffBothBackends runs EXT-PRIORITY's unscheduled arm,
// FIFO (whole tensors one at a time in emission order), on both backends:
// on the ring it is rank 0's FIFO scheduler admitting for every peer.
func TestRunLivePipelineOffBothBackends(t *testing.T) {
	for _, backend := range []LiveBackend{LiveBackendPS, LiveBackendRing} {
		cfg := liveBase(backend)
		cfg.Workers = 2
		cfg.Policy = LiveFIFO()
		res, err := RunLive(cfg)
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if want := uint64(cfg.Workers * len(cfg.LayerBytes) * cfg.Iterations); res.Stats.SubsFinished != want {
			t.Fatalf("%v: SubsFinished = %d, want %d", backend, res.Stats.SubsFinished, want)
		}
	}
}

// TestRunLivePipelineOffFused runs the FIFO arm with fusion on both
// backends: buckets form mid-pass and at the pass boundary, and go out
// whole, one at a time, in emission order.
func TestRunLivePipelineOffFused(t *testing.T) {
	for _, backend := range []LiveBackend{LiveBackendPS, LiveBackendRing} {
		cfg := liveBase(backend)
		cfg.Workers = 2
		cfg.LayerBytes = fusedLayers
		cfg.FuseTheta = 4 << 10
		cfg.Policy = LiveFIFO()
		res, err := RunLive(cfg)
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		unfused := cfg
		unfused.FuseTheta = 0
		base, err := RunLive(unfused)
		if err != nil {
			t.Fatalf("%v unfused: %v", backend, err)
		}
		if res.Stats.SubsFinished >= base.Stats.SubsFinished {
			t.Fatalf("%v: SubsFinished = %d with fusion, want < %d unfused (buckets did not form)",
				backend, res.Stats.SubsFinished, base.Stats.SubsFinished)
		}
	}
}

// TestLivePipelineOverlap is the mechanism check behind EXT-PRIORITY's
// wall-clock claim on the ring, on its live leg's shape (the CLI's
// rear-heavy model behind a 2 Gbps shaped link): under rank 0's scheduler,
// partitions stream during the backward pass and front layers overtake the
// tail, so the measured iteration should be faster than FIFO's. The
// speed-up is logged, not gated: this is wall clock on a shared machine,
// and the benchmark (bench/, runner.sched_speedup_x) owns the timing
// claims.
func TestLivePipelineOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison")
	}
	base := liveBase(LiveBackendRing)
	base.LayerBytes = []int64{64 << 10, 128 << 10, 256 << 10, 256 << 10, 512 << 10, 512 << 10}
	base.Policy = core.ByteScheduler(256<<10, 1<<20)
	base.Priority = core.PriorityLayer
	base.Iterations, base.Warmup = 10, 2
	base.ForwardCompute = 500 * time.Microsecond
	base.BackwardCompute = 500 * time.Microsecond
	base.Shape = []LinkShape{{Gbps: 2}}
	fifo := base
	fifo.Policy, fifo.Priority = LiveFIFO(), core.PriorityDefault

	best := func(cfg LiveConfig) float64 {
		b := 0.0
		// Best-of-3 absorbs scheduler noise on shared machines.
		for rep := 0; rep < 3; rep++ {
			res, err := RunLive(cfg)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Policy.Name, err)
			}
			if b == 0 || res.IterTime < b {
				b = res.IterTime
			}
		}
		return b
	}
	sched, unsched := best(base), best(fifo)
	if sched <= 0 || unsched <= 0 {
		t.Fatalf("iteration times scheduled %v FIFO %v, want > 0", sched, unsched)
	}
	t.Logf("ring scheduled %.2fms, FIFO %.2fms: speed-up %+.1f%%", sched*1e3, unsched*1e3, (unsched/sched-1)*100)
}

// TestRingLostPeerFailsEveryWorker: a peer that dies mid-run fails every
// worker well inside the step timeout instead of leaving rank 0 waiting
// for readiness that never comes. Rank 2's transport fails at iteration 2
// and its peer closes; rank 0 loses its control link, closes in turn, and
// so does rank 1. The run's error, chosen as RunLive chooses it, is rank
// 2's — the cause, not rank 0's echo of it.
func TestRingLostPeerFailsEveryWorker(t *testing.T) {
	cfg := liveBase(LiveBackendRing)
	cfg.Iterations = 8
	peers, teardown, err := dialRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	starts, exposed := make([]time.Time, cfg.Iterations), make([]float64, cfg.Iterations)
	errs := make([]error, len(peers))
	done := make(chan error)
	go func() {
		var fails firstFailure
		done <- runWorkers(len(peers), &fails, func(r int) error {
			peer := peers[r]
			comm := ringComm(peer)
			if r == 2 {
				comm = func(key string, iter uint32, in, out []float32, h sender) error {
					if iter == 2 {
						go peer.Close()
						return errors.New("link down")
					}
					return ringComm(peer)(key, iter, in, out, h)
				}
			}
			ring := newRingCoord(peer, r, len(peers), nil)
			ring.fails = &fails
			_, errs[r] = liveWorker(cfg, r, nil, fails.watch(r, comm), ring, nil, starts, exposed)
			return errs[r]
		})
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workers still running 10 s after a peer died")
	}
	for r, err := range errs {
		if err == nil {
			t.Errorf("worker %d finished without error after rank 2 died", r)
		}
	}
	if err == nil || !strings.Contains(err.Error(), "live worker 2:") {
		t.Errorf("run failed with %v, want rank 2's failure", err)
	}
}
