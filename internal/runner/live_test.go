package runner

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/tensor"
	"bytescheduler/internal/trace"
)

func liveBase(backend LiveBackend) LiveConfig {
	return LiveConfig{
		Backend:         backend,
		Workers:         3,
		LayerBytes:      []int64{16 << 10, 32 << 10, 8 << 10, 24 << 10},
		Policy:          core.ByteScheduler(8<<10, 48<<10),
		Iterations:      5,
		Warmup:          1,
		ForwardCompute:  200 * time.Microsecond,
		BackwardCompute: 200 * time.Microsecond,
		Seed:            7,
	}
}

func TestRunLiveRing(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := liveBase(LiveBackendRing)
	cfg.Metrics = reg
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTime <= 0 {
		t.Fatalf("IterTime = %v, want > 0", res.IterTime)
	}
	if want := cfg.Iterations - cfg.Warmup - 1; len(res.IterTimes) != want {
		t.Fatalf("len(IterTimes) = %d, want %d", len(res.IterTimes), want)
	}
	if res.Stats.SubsFinished == 0 {
		t.Fatal("no sub-tasks finished")
	}
	if got := reg.Counter("netar_ops_total").Value(); got == 0 {
		t.Fatal("netar_ops_total = 0: ring transport not exercised")
	}
}

func TestRunLivePS(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := liveBase(LiveBackendPS)
	cfg.Workers = 2
	cfg.Metrics = reg
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTime <= 0 {
		t.Fatalf("IterTime = %v, want > 0", res.IterTime)
	}
	if got := reg.Counter("netps_requests_total").Value(); got == 0 {
		t.Fatal("netps_requests_total = 0: PS transport not exercised")
	}
}

// TestRunLiveTraceSpans pins what a traced live run records, per worker,
// iteration and partition: one "push" and one "pull" span on the PS lane
// netps/c<rank+1>, or one "allreduce" span on the ring lane netar/r<rank>,
// each named "<op> <key>#<iter>", and nothing else.
func TestRunLiveTraceSpans(t *testing.T) {
	for _, backend := range []LiveBackend{LiveBackendPS, LiveBackendRing} {
		rec := trace.New()
		cfg := liveBase(backend)
		cfg.Workers = 2
		cfg.Trace = trace.NewWall(rec)
		if _, err := RunLive(cfg); err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		want := map[string]int{}
		for r := 0; r < cfg.Workers; r++ {
			for it := 0; it < cfg.Iterations; it++ {
				for l, b := range cfg.LayerBytes {
					n := len(tensor.Partition(tensor.Tensor{Bytes: b}, cfg.Policy.PartitionUnit))
					for i := 0; i < n; i++ {
						key := fmt.Sprintf("L%02d[%d/%d]#%d", l, i, n, it)
						if backend == LiveBackendPS {
							want[fmt.Sprintf("netps/c%d push %s", r+1, key)]++
							want[fmt.Sprintf("netps/c%d pull %s", r+1, key)]++
						} else {
							want[fmt.Sprintf("netar/r%d allreduce %s", r, key)]++
						}
					}
				}
			}
		}
		got := map[string]int{}
		for _, s := range rec.Spans() {
			if s.End < s.Start {
				t.Fatalf("%v: span %s %s ends before it starts", backend, s.Lane, s.Name)
			}
			got[s.Lane+" "+s.Name]++
		}
		for k, n := range want {
			if got[k] != n {
				t.Errorf("%v: %d spans %q, want %d", backend, got[k], k, n)
			}
		}
		for k, n := range got {
			if want[k] == 0 {
				t.Errorf("%v: %d unexpected spans %q", backend, n, k)
			}
		}
	}
}

// TestRunLivePSBindingCredit pins the split-phase credit fix on the PS
// path: a credit window of one partition (stop-and-wait) with streaming
// back-to-front release lets the two workers admit different layer
// subsets, and because a pull blocks until every worker pushed, holding
// credit through the pull deadlocked them against each other. With the
// send and wait phases separated (credit returned at push-ack), even the
// tightest window must complete.
func TestRunLivePSBindingCredit(t *testing.T) {
	cfg := liveBase(LiveBackendPS)
	cfg.Workers = 2
	cfg.LayerBytes = []int64{8 << 10, 8 << 10, 8 << 10, 8 << 10}
	cfg.Policy = core.ByteScheduler(8<<10, 8<<10)
	cfg.Iterations, cfg.Warmup = 25, 1
	cfg.ForwardCompute = 50 * time.Microsecond
	cfg.BackwardCompute = 50 * time.Microsecond
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubsFinished == 0 {
		t.Fatal("no sub-tasks finished")
	}
}

// TestLiveWorkerPullFailureAfterAck fails one partition's pull after its
// push was acknowledged. Its bytes were delivered, so the scheduler must not
// retry it even with a retry budget: the partition resolves failed, counts
// in Stats.Failures rather than SubsFinished, and its layer's forward gate
// reports the error.
func TestLiveWorkerPullFailureAfterAck(t *testing.T) {
	cfg := liveBase(LiveBackendPS)
	cfg.Workers = 1
	cfg.Policy = cfg.Policy.WithMaxRetries(2)
	lost := errors.New("pull lost")
	comm := func(key string, iter uint32, in, out []float32, h sender) error {
		copy(out, in)
		h.Sent()
		if iter == 1 && key == "L02[0/1]" {
			return lost
		}
		return nil
	}
	stats, err := liveWorker(cfg, 0, nil, comm, nil, nil, make([]time.Time, cfg.Iterations), make([]float64, cfg.Iterations))
	if !errors.Is(err, lost) {
		t.Fatalf("err = %v, want the lost pull", err)
	}
	if stats.Failures != 1 || stats.Retries != 0 {
		t.Fatalf("stats = %+v, want 1 failure and no retry", stats)
	}
}

// TestRunLiveRingTightCredit: priority scheduling on the ring with a
// credit window equal to a single partition (P3-style stop-and-wait) once
// cross-peer deadlocked when each peer admitted in its own order. Rank 0's
// scheduler admits for every peer, so even the tightest window completes.
func TestRunLiveRingTightCredit(t *testing.T) {
	cfg := liveBase(LiveBackendRing)
	cfg.Policy = core.ByteScheduler(8<<10, 8<<10)
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubsFinished == 0 {
		t.Fatal("no sub-tasks finished")
	}
}

func TestRunLiveRingFIFO(t *testing.T) {
	cfg := liveBase(LiveBackendRing)
	cfg.Policy = LiveFIFO()
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// FIFO does not partition: one sub per layer per iteration.
	want := uint64(cfg.Workers * len(cfg.LayerBytes) * cfg.Iterations)
	if res.Stats.SubsFinished != want {
		t.Fatalf("SubsFinished = %d, want %d", res.Stats.SubsFinished, want)
	}
}

// TestRunLivePSFused runs a small-tensor long tail through the fusion
// buffer on the PS backend: buckets must form identically on every worker
// (content-derived keys aggregate correctly) and unfuse into exact
// per-layer sums.
func TestRunLivePSFused(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := liveBase(LiveBackendPS)
	cfg.Workers = 2
	cfg.Metrics = reg
	// A long tail of sub-theta layers plus two large passthrough layers.
	cfg.LayerBytes = []int64{32 << 10, 256, 128, 256, 128, 24 << 10, 512, 256}
	cfg.FuseTheta = 4 << 10
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTime <= 0 {
		t.Fatalf("IterTime = %v, want > 0", res.IterTime)
	}
	// Fusion collapses the six small layers into at most two tasks per
	// pass, so the fused run must finish strictly fewer subs than the same
	// config unfused.
	unfused := cfg
	unfused.FuseTheta = 0
	base, err := RunLive(unfused)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubsFinished >= base.Stats.SubsFinished {
		t.Fatalf("SubsFinished = %d with fusion, want < %d unfused (buckets did not form)",
			res.Stats.SubsFinished, base.Stats.SubsFinished)
	}
	if got := reg.Counter("core_fused_tasks_total").Value(); got == 0 {
		t.Fatal("core_fused_tasks_total = 0: fusion counters not published")
	}
	if got := reg.Counter("core_fused_members_total").Value(); got == 0 {
		t.Fatal("core_fused_members_total = 0: fusion counters not published")
	}
}

// fusedLayers is a small-tensor long tail around two large layers: with
// FuseTheta = 4 KB a backward pass forms one bucket that flushes on size
// mid-pass (layers 7, 5, 4, 3) and one that flushes at the pass boundary
// (layers 2, 1).
var fusedLayers = []int64{16 << 10, 2 << 10, 1 << 10, 1 << 10, 2 << 10, 1 << 10, 8 << 10, 512}

// TestRunLiveRingFused exercises the same fusion path over the ring
// all-reduce under the default scheduled policy.
func TestRunLiveRingFused(t *testing.T) {
	cfg := liveBase(LiveBackendRing)
	cfg.LayerBytes = fusedLayers
	cfg.FuseTheta = 4 << 10
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unfused := cfg
	unfused.FuseTheta = 0
	base, err := RunLive(unfused)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubsFinished >= base.Stats.SubsFinished {
		t.Fatalf("SubsFinished = %d with fusion, want < %d unfused (buckets did not form)",
			res.Stats.SubsFinished, base.Stats.SubsFinished)
	}
}

// TestRunLiveFusedCoordinatedRingAnyCredit is the gate for fusion under
// the ring's master Core (once refused outright): a bucket is named by its
// position in the pass, identical on every peer, and rank 0 admits it like
// any task, so the run must be deadlock-free at any credit — a 1-byte
// window, a single partition, effectively unlimited — under layer and
// adversarial random priorities. The worker's per-layer aggregation check
// catches misrouted or cross-iteration-mixed buckets.
func TestRunLiveFusedCoordinatedRingAnyCredit(t *testing.T) {
	for _, prio := range []core.PriorityPolicy{core.PriorityDefault, core.PriorityRandom} {
		for _, credit := range []int64{1, 8 << 10, 1 << 30} {
			cfg := liveBase(LiveBackendRing)
			cfg.LayerBytes = fusedLayers
			cfg.FuseTheta = 4 << 10
			cfg.Policy = core.ByteScheduler(8<<10, credit)
			cfg.Priority = prio
			cfg.Iterations, cfg.Warmup = 8, 1
			res, err := RunLive(cfg)
			if err != nil {
				t.Fatalf("priority %v credit %d: %v", prio, credit, err)
			}
			if res.Stats.SubsFinished == 0 {
				t.Fatalf("priority %v credit %d: no sub-tasks finished", prio, credit)
			}
		}
	}
}

// TestRunLiveFusedPooledBuffers drives fused buckets as windows of the
// worker's slab as hard as a small run can: with FuseTheta above most
// layers a pass forms 12–24 KB buckets, each cut into several 8 KB
// partitions of differing last size that are in flight together on both
// workers for a dozen iterations. Every layer carries its own value, so a
// member at the wrong bucket offset or a partition aimed at the wrong
// layer fails the worker's per-layer aggregation check; the race detector
// catches two tasks writing one window.
func TestRunLiveFusedPooledBuffers(t *testing.T) {
	for _, backend := range []LiveBackend{LiveBackendPS, LiveBackendRing} {
		cfg := liveBase(backend)
		cfg.Workers = 2
		cfg.LayerBytes = []int64{16 << 10, 6 << 10, 2 << 10, 10 << 10, 1 << 10, 512, 5 << 10, 3 << 10, 256}
		cfg.FuseTheta = 12 << 10
		cfg.Iterations = 12
		res, err := RunLive(cfg)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Stats.SubsFinished == 0 {
			t.Fatalf("%s: no sub-tasks finished", backend)
		}
	}
}

// TestRunLiveCodecs drives every wire codec end to end on both backends.
// A layer's gradient is one small integer per rank, which fp16 and int8
// carry bit-exactly, so the full aggregation check still applies; top-k
// verifies the relaxed invariant.
func TestRunLiveCodecs(t *testing.T) {
	topk, err := compress.TopKCodec(0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []LiveBackend{LiveBackendPS, LiveBackendRing} {
		for _, cd := range []compress.Codec{compress.FP16Codec(), compress.Int8Codec(), topk} {
			cfg := liveBase(backend)
			cfg.Workers = 2
			cfg.Iterations = 3
			cfg.Codec = cd
			if _, err := RunLive(cfg); err != nil {
				t.Fatalf("%s/%s: %v", backend, cd.Name(), err)
			}
		}
	}
}

// TestRunLivePSFusedCodec stacks both tentpole features: fused buckets
// travelling compressed.
func TestRunLivePSFusedCodec(t *testing.T) {
	cfg := liveBase(LiveBackendPS)
	cfg.Workers = 2
	cfg.Iterations = 3
	cfg.LayerBytes = []int64{16 << 10, 256, 128, 256, 128, 8 << 10}
	cfg.FuseTheta = 4 << 10
	cfg.Codec = compress.FP16Codec()
	if _, err := RunLive(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunLiveValidation(t *testing.T) {
	good := liveBase(LiveBackendRing)
	for _, tc := range []struct {
		name string
		mut  func(*LiveConfig)
	}{
		{"no workers", func(c *LiveConfig) { c.Workers = 0 }},
		{"no layers", func(c *LiveConfig) { c.LayerBytes = nil }},
		{"ragged layer", func(c *LiveConfig) { c.LayerBytes = []int64{10} }},
		{"negative layer", func(c *LiveConfig) { c.LayerBytes = []int64{-4} }},
		{"ragged partition", func(c *LiveConfig) { c.Policy.PartitionUnit = 6 }},
		{"too few iterations", func(c *LiveConfig) { c.Iterations = c.Warmup + 1 }},
		{"bad backend", func(c *LiveConfig) { c.Backend = LiveBackend(99) }},
		{"ragged fuse theta", func(c *LiveConfig) { c.FuseTheta = 6 }},
		{"retried ring collective", func(c *LiveConfig) { c.Policy = c.Policy.WithMaxRetries(1) }},
	} {
		cfg := good
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	// The PS transport's retries re-send a push the server deduplicates.
	ps := liveBase(LiveBackendPS)
	ps.Policy = ps.Policy.WithMaxRetries(1)
	if err := ps.Validate(); err != nil {
		t.Fatalf("PS config with a retry budget rejected: %v", err)
	}
}

// TestPartKeys: a partition's transport key is the name[i/n] the frames
// and fuzz corpora carry, built once per (name, count) and rebuilt when
// the count changes.
func TestPartKeys(t *testing.T) {
	k := &partKeys{m: map[string][]string{}}
	for _, c := range []struct {
		name string
		i, n int
	}{{"L03", 0, 4}, {"L03", 3, 4}, {"L03", 1, 2}, {"L03", 2, 4}, {"fused:L01+L02", 0, 1}} {
		if got, want := k.key(c.name, c.i, c.n), fmt.Sprintf("%s[%d/%d]", c.name, c.i, c.n); got != want {
			t.Fatalf("key(%q, %d, %d) = %q, want %q", c.name, c.i, c.n, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = k.key("L00", 2, 3) }); allocs != 0 {
		t.Fatalf("a built key allocates %v times per lookup, want 0", allocs)
	}
}

func TestParseLiveBackend(t *testing.T) {
	if b, err := ParseLiveBackend("ps"); err != nil || b != LiveBackendPS {
		t.Fatalf("ps -> %v, %v", b, err)
	}
	if b, err := ParseLiveBackend("ring"); err != nil || b != LiveBackendRing {
		t.Fatalf("ring -> %v, %v", b, err)
	}
	if _, err := ParseLiveBackend("mesh"); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestMeasureRingCollective(t *testing.T) {
	sec, err := MeasureRingCollective(2, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sec <= 0 {
		t.Fatalf("measured %v sec/op, want > 0", sec)
	}
	if _, err := MeasureRingCollective(1, 1024, 3); err == nil {
		t.Fatal("1-worker microbenchmark accepted")
	}
}
