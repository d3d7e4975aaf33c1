package sweep

import (
	"errors"
	"sync/atomic"
	"testing"

	"bytescheduler/internal/cluster"
	"bytescheduler/internal/core"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/model"
	"bytescheduler/internal/network"
	"bytescheduler/internal/plugin"
	"bytescheduler/internal/runner"
	"bytescheduler/internal/tensor"
	"bytescheduler/internal/trace"
)

func testCfg(seed int64) runner.Config {
	return runner.Config{
		Model:         model.AlexNet(),
		Framework:     plugin.MXNet,
		Arch:          runner.PS,
		Transport:     network.TCP(),
		BandwidthGbps: 10,
		GPUs:          8,
		Policy:        core.FIFO(),
		Iterations:    3,
		Warmup:        1,
		Seed:          seed,
	}
}

func TestMapCoversAllIndicesInOrderIndependentSlots(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := New(WithWorkers(workers))
		out := make([]int, 100)
		if err := e.Map(100, func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	e := New(WithWorkers(4))
	errA := errors.New("a")
	errB := errors.New("b")
	err := e.Map(50, func(i int) error {
		switch i {
		case 7:
			return errA
		case 31:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("err = %v, want lowest-indexed %v", err, errA)
	}
	// Serial path too.
	s := New(WithWorkers(1))
	if err := s.Map(50, func(i int) error {
		if i == 7 {
			return errA
		}
		if i == 31 {
			return errB
		}
		return nil
	}); err != errA {
		t.Fatalf("serial err = %v, want %v", err, errA)
	}
}

func TestMapZeroTrials(t *testing.T) {
	if err := New().Map(0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunMemoizes(t *testing.T) {
	e := New(WithWorkers(2))
	cfg := testCfg(1)
	first, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.SamplesPerSec != second.SamplesPerSec {
		t.Fatalf("cached result differs: %v vs %v", first.SamplesPerSec, second.SamplesPerSec)
	}
	trials, hits := e.Stats()
	if trials != 2 || hits != 1 {
		t.Fatalf("trials=%d hits=%d, want 2/1", trials, hits)
	}
}

func TestRunConcurrentSingleFlight(t *testing.T) {
	e := New(WithWorkers(8))
	cfg := testCfg(2)
	var speeds [16]float64
	if err := e.Map(16, func(i int) error {
		res, err := e.Run(cfg) // Run is inline: safe inside Map bodies.
		speeds[i] = res.SamplesPerSec
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(speeds); i++ {
		if speeds[i] != speeds[0] {
			t.Fatalf("divergent coalesced results: %v", speeds)
		}
	}
	trials, hits := e.Stats()
	if trials != 16 {
		t.Fatalf("trials = %d, want 16", trials)
	}
	if hits != 15 {
		t.Fatalf("hits = %d, want 15 (single execution)", hits)
	}
	if len(e.cache.m) != 1 {
		t.Fatalf("cache len = %d, want 1", len(e.cache.m))
	}
}

func TestSharedCacheAcrossEngines(t *testing.T) {
	serial := New(WithWorkers(1))
	parallel := New(WithWorkers(4))
	parallel.cache = serial.cache
	cfg := testCfg(3)
	a, err := serial.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.SamplesPerSec != b.SamplesPerSec {
		t.Fatal("shared cache returned different results")
	}
	if _, hits := parallel.Stats(); hits != 1 {
		t.Fatal("second engine did not hit the shared cache")
	}
}

func TestKeyDistinguishesConfigs(t *testing.T) {
	base := testCfg(1)
	kBase, ok := Key(base)
	if !ok {
		t.Fatal("base config not cacheable")
	}
	mut := []func(*runner.Config){
		func(c *runner.Config) { c.Seed = 99 },
		func(c *runner.Config) { c.BandwidthGbps = 25 },
		func(c *runner.Config) { c.GPUs = 16 },
		func(c *runner.Config) { c.Arch = runner.AllReduce },
		func(c *runner.Config) { c.Scheduled = true },
		func(c *runner.Config) { c.Policy = core.ByteScheduler(4<<20, 16<<20) },
		func(c *runner.Config) { c.Priority = core.PriorityCriticalPath },
		func(c *runner.Config) { c.Priority = core.PriorityRandom },
		func(c *runner.Config) { c.Model = model.ResNet50() },
		func(c *runner.Config) { c.Iterations = 4 },
		func(c *runner.Config) { c.Transport = network.RDMA() },
		// Cluster scenarios key on their own scalars; every field must
		// reach the hash, and the scenario key must not collide with any
		// single-job key.
		func(c *runner.Config) { c.Cluster = &cluster.Scenario{Seed: 1} },
		func(c *runner.Config) { c.Cluster = &cluster.Scenario{Seed: 2} },
		func(c *runner.Config) { c.Cluster = &cluster.Scenario{Seed: 1, Jobs: 10} },
		func(c *runner.Config) { c.Cluster = &cluster.Scenario{Seed: 1, Nodes: 4} },
		func(c *runner.Config) { c.Cluster = &cluster.Scenario{Seed: 1, SlotsPerNode: 2} },
		func(c *runner.Config) { c.Cluster = &cluster.Scenario{Seed: 1, LinkGbps: 10} },
		func(c *runner.Config) { c.Cluster = &cluster.Scenario{Seed: 1, MaxDelayMs: 3} },
		func(c *runner.Config) { c.Cluster = &cluster.Scenario{Seed: 1, CreditPool: 64} },
		func(c *runner.Config) { c.Cluster = &cluster.Scenario{Seed: 1, ArrivalWindowSec: 5} },
		func(c *runner.Config) { c.Cluster = &cluster.Scenario{Seed: 1, Fair: true} },
	}
	seen := map[string]int{kBase: -1}
	for i, m := range mut {
		cfg := testCfg(1)
		m(&cfg)
		k, ok := Key(cfg)
		if !ok {
			t.Fatalf("mutation %d not cacheable", i)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("mutation %d collides with %d", i, prev)
		}
		seen[k] = i
	}
}

func TestKeyStableAcrossCalls(t *testing.T) {
	a, _ := Key(testCfg(7))
	b, _ := Key(testCfg(7))
	if a != b {
		t.Fatal("Key not deterministic")
	}
}

func TestUncacheableConfigsAlwaysExecute(t *testing.T) {
	var calls atomic.Int64
	// Custom priority functions are behaviorally opaque.
	custom := testCfg(1)
	custom.Policy.Priority = func(tn tensor.Tensor, seq uint64) int64 { calls.Add(1); return int64(tn.Layer) }
	if _, ok := Key(custom); ok {
		t.Fatal("custom-priority config should be uncacheable")
	}
	// Canonical LayerPriority stays cacheable.
	canon := testCfg(1)
	canon.Policy.Priority = core.LayerPriority
	if _, ok := Key(canon); !ok {
		t.Fatal("LayerPriority config should be cacheable")
	}
	// Attached sinks have side effects a cache hit would skip.
	traced := testCfg(1)
	traced.Trace = trace.New()
	if _, ok := Key(traced); ok {
		t.Fatal("traced config should be uncacheable")
	}
	withMetrics := testCfg(1)
	withMetrics.Metrics = metrics.NewRegistry()
	if _, ok := Key(withMetrics); ok {
		t.Fatal("metrics-attached config should be uncacheable")
	}

	e := New(WithWorkers(1))
	if _, err := e.Run(custom); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(custom); err != nil {
		t.Fatal(err)
	}
	if _, hits := e.Stats(); hits != 0 {
		t.Fatal("uncacheable config produced a cache hit")
	}
	if len(e.cache.m) != 0 {
		t.Fatal("uncacheable config entered the cache")
	}
}

func TestRunCachesErrors(t *testing.T) {
	e := New(WithWorkers(1))
	bad := testCfg(1)
	bad.GPUs = -1 // invalid: runner must reject
	if _, err := e.Run(bad); err == nil {
		t.Skip("runner accepted GPUs=-1; error-caching untestable here")
	}
	key, ok := Key(bad)
	if !ok {
		t.Fatal("bad config not cacheable")
	}
	if _, err := e.Run(bad); err == nil {
		t.Fatal("cached error lost")
	}
	if len(e.cache.m) != 1 {
		t.Fatal("error not cached")
	}
	_ = key
}
