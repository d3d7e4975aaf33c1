package runner

import (
	"math"
	"runtime"
	"testing"

	"bytescheduler/internal/core"
	"bytescheduler/internal/model"
	"bytescheduler/internal/network"
	"bytescheduler/internal/plugin"
)

// simPSTrial is the benchmark's sim_ps trial (bench/README.md): fine
// partitions, so nearly all of its 27 200 sub-tasks' work is in sim, core,
// plugin, ps and network.
func simPSTrial(seed int64) Config {
	return Config{
		Model:         model.VGG16(),
		Framework:     plugin.MXNet,
		Arch:          PS,
		Transport:     network.TCP(),
		BandwidthGbps: 10,
		GPUs:          16,
		Policy:        core.ByteScheduler(160<<10, 640<<10),
		Scheduled:     true,
		Iterations:    2,
		Warmup:        1,
		Jitter:        0.02,
		Seed:          seed,
	}
}

// golden is one trial's outcome with every float as its bit pattern: the
// referee is order, so "close" is a failure.
type golden struct {
	samples, iter, load, planned, gpu uint64
	up, down                          core.Stats
	fired                             uint64
}

// observe runs cfg's trial on a world from l; an empty list builds a fresh
// one.
func observe(t testing.TB, l *worldList, cfg Config) golden {
	t.Helper()
	res, fired, err := runOn(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return goldenOf(res, fired)
}

func goldenOf(res Result, fired uint64) golden {
	return golden{
		samples: math.Float64bits(res.SamplesPerSec),
		iter:    math.Float64bits(res.IterTime),
		load:    math.Float64bits(res.LoadImbalance),
		planned: math.Float64bits(res.PlannedImbalance),
		gpu:     math.Float64bits(res.GPUUtilization),
		up:      res.UpStats,
		down:    res.DownStats,
		fired:   fired,
	}
}

// TestSimTrialGolden pins five trials — result bits, both schedulers'
// counters and the number of events fired — to the values recorded at
// commit bbfebec, before the per-partition path stopped allocating. Any
// change to which event is scheduled when, or to a tie-break between events
// due at the same instant, moves at least one of them; it fails in seconds
// where the determinism suite takes most of a minute. One counter moved on
// purpose since: the PS rows' down.TasksEnqueued reads 0x80, not 0x3520,
// because a pull is now one task per tensor whose partitions become ready
// one by one, where it was one task per partition; every other field kept
// its bits.
func TestSimTrialGolden(t *testing.T) {
	allreduce := simPSTrial(1)
	allreduce.Arch, allreduce.Transport, allreduce.BandwidthGbps = AllReduce, network.RDMA(), 100
	async := simPSTrial(1)
	async.Async = true
	// Unpartitioned FIFO: whole tensors placed round-robin, the two above
	// 32 MB striped across both servers (the chunked path).
	fifo := simPSTrial(1)
	fifo.Policy, fifo.Scheduled = core.FIFO(), false
	for _, tc := range []struct {
		name string
		cfg  Config
		want golden
	}{
		{"sim_ps/seed1", simPSTrial(1), golden{samples: 0x40833934c9ac3f47, iter: 0x3feaa255bc049f29, load: 0x3ff0026e7ccb386f, planned: 0x3ff0026e7ccb386f, gpu: 0x3fc568b71829507d, up: core.Stats{TasksEnqueued: 0x80, SubsStarted: 0x3520, SubsFinished: 0x3520, Preemptions: 0x338c, MaxQueueLen: 3262, MaxInflightBytes: 655360}, down: core.Stats{TasksEnqueued: 0x80, SubsStarted: 0x3520, SubsFinished: 0x3520, Preemptions: 0xb, MaxQueueLen: 5, MaxInflightBytes: 655360}, fired: 0xefd0}},
		{"sim_ps/seed2", simPSTrial(2), golden{samples: 0x408338fc942d921d, iter: 0x3feaa2a39d9042d4, load: 0x3ff0026e7ccb386f, planned: 0x3ff0026e7ccb386f, gpu: 0x3fc559b4ca023a59, up: core.Stats{TasksEnqueued: 0x80, SubsStarted: 0x3520, SubsFinished: 0x3520, Preemptions: 0x338c, MaxQueueLen: 3262, MaxInflightBytes: 655360}, down: core.Stats{TasksEnqueued: 0x80, SubsStarted: 0x3520, SubsFinished: 0x3520, Preemptions: 0x5, MaxQueueLen: 4, MaxInflightBytes: 655360}, fired: 0xefd0}},
		{"sim_ps/seed3", simPSTrial(3), golden{samples: 0x4083368d04176bb7, iter: 0x3feaa604113731a3, load: 0x3ff0026e7ccb386f, planned: 0x3ff0026e7ccb386f, gpu: 0x3fc55ed84030b56d, up: core.Stats{TasksEnqueued: 0x80, SubsStarted: 0x3520, SubsFinished: 0x3520, Preemptions: 0x338c, MaxQueueLen: 3263, MaxInflightBytes: 655360}, down: core.Stats{TasksEnqueued: 0x80, SubsStarted: 0x3520, SubsFinished: 0x3520, Preemptions: 0x64, MaxQueueLen: 14, MaxInflightBytes: 655360}, fired: 0xefd0}},
		{"allreduce_rdma", allreduce, golden{samples: 0x40a6a3374de55824, iter: 0x3fc69e05cb627c9f, load: 0x0, planned: 0x0, gpu: 0x3fe928b08a692e85, up: core.Stats{TasksEnqueued: 0x40, SubsStarted: 0x1a90, SubsFinished: 0x1a90, Preemptions: 0x19c6, MaxQueueLen: 3054, MaxInflightBytes: 655360}, fired: 0x35a0}},
		{"async_ps", async, golden{samples: 0x408341ac01d056cc, iter: 0x3fea96a034fbb574, load: 0x3ff0026e7ccb386f, planned: 0x3ff0026e7ccb386f, gpu: 0x3fc5723891503bf0, up: core.Stats{TasksEnqueued: 0x80, SubsStarted: 0x3520, SubsFinished: 0x3520, Preemptions: 0x338c, MaxQueueLen: 3262, MaxInflightBytes: 655360}, down: core.Stats{TasksEnqueued: 0x80, SubsStarted: 0x3520, SubsFinished: 0x3520, Preemptions: 0x0, MaxQueueLen: 1, MaxInflightBytes: 655360}, fired: 0x10a60}},
		{"fifo_sharded", fifo, golden{samples: 0x4084dd93a8253893, iter: 0x3fe889bf23940cbd, load: 0x3ff22c5ba5022db3, planned: 0x3fffff34a5b032a2, gpu: 0x3fc7286ad83ae40b, up: core.Stats{TasksEnqueued: 0x80, SubsStarted: 0x80, SubsFinished: 0x80, Preemptions: 0x0, MaxQueueLen: 1, MaxInflightBytes: 537042176}, down: core.Stats{TasksEnqueued: 0x80, SubsStarted: 0x80, SubsFinished: 0x80, Preemptions: 0x0, MaxQueueLen: 1, MaxInflightBytes: 441582848}, fired: 0x324}},
	} {
		if got := observe(t, &worldList{}, tc.cfg); got != tc.want {
			t.Errorf("%s moved:\n got %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
}

// TestSimTrialAllocBudget holds the sim_ps trial on a world nothing has
// warmed — the first trial of its shape, which builds every record — to
// 30 000 allocations and 4.5 MB: a closure or a fresh record creeping back
// onto the per-partition path costs at least one allocation per sub-task,
// 27 200 a trial, and a core.Task, a handle slab or a partition slice made
// per pull partition or per worker costs megabytes. The trial measured
// 18 074 allocations and 3.65 MB (27 537 and 5.7 MB while aggregation slots
// sat in a map and every tensor's records and handles were made again each
// iteration; 41 337 and 9.3 MB while pulls were one task per partition);
// the margin is for the race detector's build and for set-up that
// legitimately grows.
func TestSimTrialAllocBudget(t *testing.T) {
	const budget, byteBudget = 30_000, 4608 << 10
	allocs, bytes := trialAllocs(t, simPSTrial(1), false)
	if allocs > budget || bytes > byteBudget {
		t.Fatalf("one sim_ps trial on a fresh world allocated %d times and %d bytes, budget %d and %d", allocs, bytes, budget, byteBudget)
	}
	t.Logf("one sim_ps trial on a fresh world: %d allocations, %d bytes (budget %d and %d)", allocs, bytes, budget, byteBudget)
}

// TestSimReusedTrialAllocBudget holds the sim_ps trial on a kept world — what
// Run costs from the second trial of a shape on — to 64 allocations and
// 8 KB. Reset keeps every record, slab, free list and partition slice, and
// the engine's compute ops are per-(worker, pass, layer) records, so what
// the trial still allocates is its results: it measured 8 allocations and
// 592 bytes, with the race detector too (856 and 30 KB while every compute
// op formatted its trace name and made its closures); the margin is for
// other toolchains and a result field or two. A closure per compute op
// costs hundreds of allocations here, and a reset that drops a free list or
// a slab instead of keeping it hundreds of kilobytes.
func TestSimReusedTrialAllocBudget(t *testing.T) {
	const budget, byteBudget = 64, 8 << 10
	allocs, bytes := trialAllocs(t, simPSTrial(1), true)
	if allocs > budget || bytes > byteBudget {
		t.Fatalf("one sim_ps trial on a reused world allocated %d times and %d bytes, budget %d and %d", allocs, bytes, budget, byteBudget)
	}
	t.Logf("one sim_ps trial on a reused world: %d allocations, %d bytes (budget %d and %d)", allocs, bytes, budget, byteBudget)
}

// TestSimReusedTrialNewUnitAllocBudget runs one kept sim_ps world at
// 160 KB, 320 KB, 160 KB and 320 KB partitions. A reset world re-cuts each
// tensor's partitions into the slice it already has and the task handle
// slabs fit the finer cut, so once the world has run at both units each
// trial is held to TestSimReusedTrialAllocBudget's budget: it measured 8
// allocations and 592 bytes, as at a repeated unit. The first trial at
// 320 KB also grows the pull schedulers' queues, which hold up to 177
// partitions there against 5 at 160 KB: it measured 30 allocations and
// 45 KB, and is held to 64 and 64 KB. While a new unit rebuilt every
// tensor's partitions and their map, the two trials after the first
// allocated 197 KB and 263 KB.
func TestSimReusedTrialNewUnitAllocBudget(t *testing.T) {
	const budget, byteBudget = 64, 8 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var kept worldList
	for i, unit := range []int64{160 << 10, 320 << 10, 160 << 10, 320 << 10} {
		cfg := simPSTrial(1)
		cfg.Policy = core.ByteScheduler(unit, 640<<10)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := runOn(&kept, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		b := uint64(byteBudget)
		if i == 1 {
			b = 64 << 10
		}
		if i > 0 && (allocs > budget || bytes > b) {
			t.Fatalf("trial %d at %d KB on a kept world allocated %d times and %d bytes, budget %d and %d", i, unit>>10, allocs, bytes, budget, b)
		}
		t.Logf("trial %d at %d KB: %d allocations, %d bytes", i, unit>>10, allocs, bytes)
	}
}

// TestSimSteadyStateAllocs holds an iteration past the first few to 1 KB
// and 8 allocations: the simulated PS path reuses its per-layer records,
// handle slabs and aggregation slots across iterations, and the engine its
// compute-op records, so an iteration allocates nothing. It compares a
// 12-iteration sim_ps trial with a 4-iteration one, both on a reused world;
// the difference measured 0 allocations and 8 bytes per iteration, with the
// race detector too (about 430 and 15 KB while each compute op made its
// closures and trace name, 1.28 MB while each iteration made its records
// again). The margin absorbs a stray runtime allocation spread over eight
// iterations; one allocation per compute op costs dozens.
func TestSimSteadyStateAllocs(t *testing.T) {
	const perIterAllocs, perIterBytes = 8, 1 << 10
	short, long := simPSTrial(1), simPSTrial(1)
	short.Iterations, long.Iterations = 4, 12
	shortAllocs, shortBytes := trialAllocs(t, short, true)
	longAllocs, longBytes := trialAllocs(t, long, true)
	extra := float64(long.Iterations - short.Iterations)
	allocs := (float64(longAllocs) - float64(shortAllocs)) / extra
	bytes := (float64(longBytes) - float64(shortBytes)) / extra
	if allocs > perIterAllocs || bytes > perIterBytes {
		t.Fatalf("each sim_ps iteration past %d allocated %.0f times and %.0f bytes, budget %d and %d", short.Iterations, allocs, bytes, perIterAllocs, perIterBytes)
	}
	t.Logf("each sim_ps iteration past %d: %.0f allocations, %.0f bytes (budget %d and %d)", short.Iterations, allocs, bytes, perIterAllocs, perIterBytes)
}

// trialAllocs returns one trial's allocations and allocated bytes, each the
// least of two runs, so no goroutine another test left behind is charged to
// the trial. Each run builds a fresh world, or with reused runs on a world
// of its own list that one untimed trial has warmed.
func trialAllocs(t *testing.T, cfg Config, reused bool) (allocs, bytes uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var kept worldList
	if reused {
		if _, _, err := runOn(&kept, cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for i := 0; i < 2; i++ {
		l := &kept
		if !reused {
			l = &worldList{}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := runOn(l, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}
