// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per experiment; see DESIGN.md's per-experiment index), the
// ablations of ByteScheduler's design choices, and micro-benchmarks of the
// core building blocks.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark executes the full (quick-sized) experiment per
// iteration and reports its headline metrics; cmd/benchsuite prints the
// complete row/series tables.
package bytescheduler_test

import (
	"runtime"
	"testing"

	"bytescheduler/internal/core"
	"bytescheduler/internal/experiments"
	"bytescheduler/internal/model"
	"bytescheduler/internal/network"
	"bytescheduler/internal/plugin"
	"bytescheduler/internal/runner"
	"bytescheduler/internal/sim"
	"bytescheduler/internal/sweep"
	"bytescheduler/internal/tensor"
	"bytescheduler/internal/tune"
)

// benchExperiment runs one registered experiment per iteration and reports
// the selected metrics. Every iteration gets a fresh trial engine with a
// cold cache, so the reported time is the real cost of regenerating the
// artifact (with GOMAXPROCS-wide trial parallelism), not a cache replay.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := exp.Run(experiments.Opts{Quick: true, Seed: 1, Engine: sweep.New()})
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	for _, m := range metrics {
		v, ok := last.Metrics[m]
		if !ok {
			b.Fatalf("experiment %s has no metric %q (have %v)", id, m, last.Metrics)
		}
		b.ReportMetric(v, m)
	}
}

// --- one bench per paper artifact (Figures 2, 4, 9–14; Table 1; §6.2) ---

func BenchmarkFig02Contrived(b *testing.B) {
	benchExperiment(b, "FIG2", "speedup_pct")
}

func BenchmarkFig04aPartitionSweep(b *testing.B) {
	benchExperiment(b, "FIG4A", "spread_1g", "spread_10g")
}

func BenchmarkFig04bCreditSweep(b *testing.B) {
	benchExperiment(b, "FIG4B", "spread_1g", "spread_10g")
}

func BenchmarkFig09BOPosterior(b *testing.B) {
	benchExperiment(b, "FIG9", "best_credit_mb", "best_speed")
}

func BenchmarkFig10VGG16(b *testing.B) {
	benchExperiment(b, "FIG10", "speedup_min_pct", "speedup_max_pct", "bs_over_p3_min_pct")
}

func BenchmarkFig11ResNet50(b *testing.B) {
	benchExperiment(b, "FIG11", "speedup_min_pct", "speedup_max_pct")
}

func BenchmarkFig12Transformer(b *testing.B) {
	benchExperiment(b, "FIG12", "speedup_min_pct", "speedup_max_pct")
}

func BenchmarkFig13Bandwidth(b *testing.B) {
	benchExperiment(b, "FIG13",
		"ResNet50_PS_10g_speedup", "ResNet50_PS_100g_speedup")
}

func BenchmarkFig14SearchCost(b *testing.B) {
	benchExperiment(b, "FIG14",
		"bo_mean_trials", "sgd_mean_trials", "random_mean_trials", "grid_mean_trials")
}

func BenchmarkTab01BestConfig(b *testing.B) {
	benchExperiment(b, "TAB1",
		"VGG16_PS_partition_mb", "VGG16_NCCL_partition_mb")
}

func BenchmarkTxtOtherModels(b *testing.B) {
	benchExperiment(b, "TXT1", "AlexNet_speedup_pct", "VGG19_speedup_pct")
}

func BenchmarkTxtLoadBalance(b *testing.B) {
	benchExperiment(b, "TXT3", "speedup_pct", "baseline_imbalance", "sched_imbalance")
}

// --- ablations of the design choices ---

func BenchmarkAblationCredit(b *testing.B) {
	benchExperiment(b, "ABL-CREDIT", "window_over_stopandwait_pct")
}

func BenchmarkAblationPartition(b *testing.B) {
	benchExperiment(b, "ABL-PARTITION", "partitioning_gain_pct", "priority_only_gain_pct")
}

func BenchmarkAblationPriority(b *testing.B) {
	benchExperiment(b, "ABL-PRIORITY", "priority_gain_pct")
}

func BenchmarkAblationBarrier(b *testing.B) {
	benchExperiment(b, "ABL-BARRIER", "crossing_gain_pct", "full_gain_pct")
}

func BenchmarkAblationAsyncPS(b *testing.B) {
	benchExperiment(b, "ABL-ASYNC", "sync_speedup_pct", "async_speedup_pct")
}

func BenchmarkAblationCollective(b *testing.B) {
	benchExperiment(b, "ABL-COLLECTIVE", "hd_vs_ring_small_pct", "tree_vs_ring_large_pct")
}

// --- the paper's §7 future-work extensions ---

func BenchmarkExtOnlineTuning(b *testing.B) {
	benchExperiment(b, "EXT-ONLINE", "improvement_pct", "restarts")
}

func BenchmarkExtLayerwisePartition(b *testing.B) {
	benchExperiment(b, "EXT-LAYERWISE", "layerwise_vs_uniform_pct")
}

func BenchmarkExtCoScheduling(b *testing.B) {
	benchExperiment(b, "EXT-COSCHED", "bs_over_fifo_aggregate_pct", "contention_loss_pct")
}

func BenchmarkExtCompression(b *testing.B) {
	benchExperiment(b, "EXT-COMPRESS", "fp16_over_bs_pct", "bs_over_fifo_at_fp16_pct")
}

func BenchmarkThm01Optimality(b *testing.B) {
	benchExperiment(b, "THM1", "best_alternative_advantage_ms", "worst_gap_over_bound")
}

// --- micro-benchmarks of the building blocks ---

func BenchmarkSimEngineEvents(b *testing.B) {
	eng := sim.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Schedule(1, func() {})
		eng.Step()
	}
}

func BenchmarkSchedulerEnqueueDispatch(b *testing.B) {
	s := core.New(core.ByteScheduler(64<<10, 1<<20))
	start := func(sub tensor.Sub, done func()) { done() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := &core.Task{
			Tensor: tensor.Tensor{Layer: i % 16, Name: "w", Bytes: 256 << 10},
			Start:  start,
		}
		s.Enqueue(task)
		s.NotifyReady(task)
	}
}

// BenchmarkFabricTransfers sends b.N 1 MB messages from four sources to four
// receivers far faster than they drain, so the backlog grows with b.N until
// the final Run. Dispatch only looks at each source's head, so ns/op holds
// flat at any -benchtime.
func BenchmarkFabricTransfers(b *testing.B) {
	eng := sim.New()
	fab := network.NewFabric(eng, 8, 100, network.RDMA())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fab.Send(&network.Transfer{Src: i % 4, Dst: 4 + i%4, Bytes: 1 << 20})
		for eng.Pending() > 32 {
			eng.Step()
		}
	}
	eng.Run()
}

func BenchmarkGPFitPredict(b *testing.B) {
	gp := tune.NewGP()
	xs := make([][]float64, 24)
	ys := make([]float64, len(xs))
	for i := range xs {
		f := float64(i) / float64(len(xs))
		xs[i] = []float64{f, 1 - f}
		ys[i] = f * (1 - f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gp.Fit(xs, ys); err != nil {
			b.Fatal(err)
		}
		gp.Predict([]float64{0.3, 0.7})
	}
}

// BenchmarkSimTrial is the benchmark's sim_ps trial (bench/README.md): fine
// partitions put nearly all of its 27 200 sub-tasks' work on the
// per-partition path through sim, core, plugin, ps and network, so allocs/sub
// and ns/sub are that path's cost.
func BenchmarkSimTrial(b *testing.B) {
	cfg := runner.Config{
		Model:         model.VGG16(),
		Framework:     plugin.MXNet,
		Arch:          runner.PS,
		Transport:     network.TCP(),
		BandwidthGbps: 10,
		GPUs:          16,
		Policy:        core.ByteScheduler(160<<10, 640<<10),
		Scheduled:     true,
		Iterations:    2,
		Warmup:        1,
		Jitter:        0.02,
	}
	var subs uint64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := runner.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		subs += res.UpStats.SubsFinished + res.DownStats.SubsFinished
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(subs), "allocs/sub")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(subs), "ns/sub")
}

func BenchmarkFullTrainingRun(b *testing.B) {
	// One complete simulated VGG16 PS RDMA run per iteration: the cost of
	// a single auto-tuning trial.
	cfg := runner.Config{
		Model:         model.VGG16(),
		Framework:     plugin.MXNet,
		Arch:          runner.PS,
		Transport:     network.RDMA(),
		BandwidthGbps: 100,
		GPUs:          16,
		Policy:        core.ByteScheduler(2<<20, 16<<20),
		Scheduled:     true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.SamplesPerSec <= 0 {
			b.Fatal("degenerate run")
		}
	}
}
