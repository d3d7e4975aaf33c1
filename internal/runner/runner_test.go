package runner

import (
	"testing"

	"bytescheduler/internal/core"
	"bytescheduler/internal/model"
	"bytescheduler/internal/network"
	"bytescheduler/internal/plugin"
)

func vggPS(t *testing.T, transport network.Profile, gbps float64, gpus int) Config {
	t.Helper()
	return Config{
		Model:         model.VGG16(),
		Framework:     plugin.MXNet,
		Arch:          PS,
		Transport:     transport,
		BandwidthGbps: gbps,
		GPUs:          gpus,
		Policy:        core.FIFO(),
	}
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesPerSec <= 0 || res.IterTime <= 0 {
		t.Fatalf("degenerate result %+v for %s", res, cfg.Name())
	}
	return res
}

func scheduled(cfg Config, partition, credit int64) Config {
	cfg.Policy = core.ByteScheduler(partition, credit)
	cfg.Scheduled = true
	return cfg
}

func TestValidation(t *testing.T) {
	good := vggPS(t, network.RDMA(), 100, 16)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		func() Config { c := good; c.Model = nil; return c }(),
		func() Config { c := good; c.BandwidthGbps = 0; return c }(),
		func() Config { c := good; c.GPUs = 12; return c }(), // not multiple of 8
		func() Config { c := good; c.GPUs = 0; return c }(),
		func() Config { c := good; c.Warmup = 50; c.Iterations = 10; return c }(),
		func() Config { c := good; c.Arch = Arch(9); return c }(),
		func() Config { c := good; c.Policy = core.Policy{PartitionUnit: -1}; return c }(),
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestFaultInjection(t *testing.T) {
	cfg := vggPS(t, network.TCP(), 25, 16)
	cfg.Iterations = 6
	clean := mustRun(t, cfg)

	faulty := cfg
	faulty.Faults = &network.FaultConfig{Seed: 11, DropProb: 0.02, RetransmitDelay: 2e-3}
	degraded := mustRun(t, faulty)
	if degraded.Faults.Retransmits == 0 {
		t.Fatal("no retransmits recorded at 2% drop")
	}
	if degraded.SamplesPerSec >= clean.SamplesPerSec {
		t.Fatalf("faults did not slow the run: %.0f >= %.0f",
			degraded.SamplesPerSec, clean.SamplesPerSec)
	}
	// Determinism must survive fault injection.
	again := mustRun(t, faulty)
	if again.SamplesPerSec != degraded.SamplesPerSec || again.Faults != degraded.Faults {
		t.Fatalf("faulty run not deterministic: %v vs %v (%+v vs %+v)",
			again.SamplesPerSec, degraded.SamplesPerSec, again.Faults, degraded.Faults)
	}

	// Faults require the PS fabric: the collective substrate is analytic.
	ar := faulty
	ar.Arch = AllReduce
	if _, err := Run(ar); err == nil {
		t.Fatal("fault injection on all-reduce accepted")
	}
	// Invalid fault configs are rejected at validation time.
	bad := faulty
	bad.Faults = &network.FaultConfig{DropProb: -1}
	if _, err := Run(bad); err == nil {
		t.Fatal("invalid fault config accepted")
	}
}

func TestNameAndMachines(t *testing.T) {
	cfg := vggPS(t, network.RDMA(), 100, 32)
	if cfg.Machines() != 4 {
		t.Fatalf("Machines = %d, want 4", cfg.Machines())
	}
	want := "MXNet PS RDMA VGG16 x32gpu"
	if got := cfg.Name(); got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := scheduled(vggPS(t, network.RDMA(), 100, 16), 4<<20, 16<<20)
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.SamplesPerSec != b.SamplesPerSec {
		t.Fatalf("non-deterministic: %v vs %v", a.SamplesPerSec, b.SamplesPerSec)
	}
}

func TestVGG16PSRDMASpeedup(t *testing.T) {
	// Figure 10(b) shape: large ByteScheduler gains for VGG16 on PS RDMA.
	base := mustRun(t, vggPS(t, network.RDMA(), 100, 16))
	bs := mustRun(t, scheduled(vggPS(t, network.RDMA(), 100, 16), 4<<20, 16<<20))
	linear := LinearScaling(vggPS(t, network.RDMA(), 100, 16))
	speedup := (bs.SamplesPerSec - base.SamplesPerSec) / base.SamplesPerSec
	if speedup < 0.30 {
		t.Fatalf("VGG16 PS RDMA speedup %.1f%%, want >30%%", speedup*100)
	}
	if bs.SamplesPerSec > linear*1.02 {
		t.Fatalf("ByteScheduler %.0f exceeds linear scaling %.0f", bs.SamplesPerSec, linear)
	}
	if bs.UpStats.Preemptions == 0 {
		t.Fatal("no preemptions recorded for a comm-bound model")
	}
}

func TestResNet50NCCLNearLinear(t *testing.T) {
	// Figure 11(d) shape: ResNet50 on NCCL RDMA is compute-bound; the
	// baseline is already close to linear and gains are small.
	cfg := Config{
		Model:         model.ResNet50(),
		Framework:     plugin.MXNet,
		Arch:          AllReduce,
		Transport:     network.RDMA(),
		BandwidthGbps: 100,
		GPUs:          16,
		Policy:        core.FIFO(),
	}
	base := mustRun(t, cfg)
	bs := mustRun(t, scheduled(cfg, 56<<20, 64<<20))
	linear := LinearScaling(cfg)
	if base.SamplesPerSec < 0.75*linear {
		t.Fatalf("ResNet50 NCCL baseline %.0f too far from linear %.0f", base.SamplesPerSec, linear)
	}
	speedup := (bs.SamplesPerSec - base.SamplesPerSec) / base.SamplesPerSec
	if speedup < -0.02 || speedup > 0.30 {
		t.Fatalf("ResNet50 NCCL speedup %.1f%%, want small and non-negative", speedup*100)
	}
}

func TestSchedulingNeverHurts(t *testing.T) {
	// ByteScheduler (with sensible parameters) accelerates every setup
	// (§6.1: "ByteScheduler accelerates training in all setups").
	models := []*model.Model{model.VGG16(), model.ResNet50(), model.Transformer()}
	for _, m := range models {
		for _, arch := range []Arch{PS, AllReduce} {
			cfg := Config{
				Model:         m,
				Framework:     plugin.MXNet,
				Arch:          arch,
				Transport:     network.RDMA(),
				BandwidthGbps: 25,
				GPUs:          16,
				Policy:        core.FIFO(),
			}
			base := mustRun(t, cfg)
			var bs Result
			if arch == PS {
				bs = mustRun(t, scheduled(cfg, 4<<20, 16<<20))
			} else {
				bs = mustRun(t, scheduled(cfg, 56<<20, 96<<20))
			}
			if bs.SamplesPerSec < base.SamplesPerSec*0.99 {
				t.Errorf("%s %v: scheduled %.0f slower than baseline %.0f",
					m.Name, arch, bs.SamplesPerSec, base.SamplesPerSec)
			}
		}
	}
}

func TestGlobalBarrierHurtsBaseline(t *testing.T) {
	// Same PS TCP setup: vanilla TensorFlow (global barrier) must not
	// beat vanilla MXNet (per-layer), and crossing the barrier with
	// ByteScheduler must recover the gap.
	mx := vggPS(t, network.TCP(), 25, 16)
	tf := mx
	tf.Framework = plugin.TensorFlow
	mxBase := mustRun(t, mx)
	tfBase := mustRun(t, tf)
	if tfBase.SamplesPerSec > mxBase.SamplesPerSec*1.01 {
		t.Fatalf("barrier baseline %.0f beats per-layer baseline %.0f", tfBase.SamplesPerSec, mxBase.SamplesPerSec)
	}
	tfBS := mustRun(t, scheduled(tf, 8<<20, 32<<20))
	if tfBS.SamplesPerSec <= tfBase.SamplesPerSec {
		t.Fatalf("crossing the barrier did not help: %.0f vs %.0f", tfBS.SamplesPerSec, tfBase.SamplesPerSec)
	}
}

func TestByteSchedulerBeatsP3(t *testing.T) {
	// §6.2: ByteScheduler outperforms P3 (stop-and-wait, fixed 160KB
	// partitions) in the MXNet PS TCP case.
	cfg := vggPS(t, network.TCP(), 25, 16)
	p3 := cfg
	p3.Policy = core.P3()
	p3.Scheduled = true
	p3Res := mustRun(t, p3)
	bs := mustRun(t, scheduled(cfg, 8<<20, 32<<20))
	if bs.SamplesPerSec <= p3Res.SamplesPerSec {
		t.Fatalf("ByteScheduler %.0f not faster than P3 %.0f", bs.SamplesPerSec, p3Res.SamplesPerSec)
	}
}

func TestResNetGainShrinksWithBandwidth(t *testing.T) {
	// Figure 13(c) shape: ResNet50 PS gains are large at 10Gbps and small
	// at 100Gbps.
	speedupAt := func(gbps float64) float64 {
		cfg := Config{
			Model:         model.ResNet50(),
			Framework:     plugin.MXNet,
			Arch:          PS,
			Transport:     network.RDMA(),
			BandwidthGbps: gbps,
			GPUs:          32,
			Policy:        core.FIFO(),
		}
		base := mustRun(t, cfg)
		bs := mustRun(t, scheduled(cfg, 2<<20, 8<<20))
		return (bs.SamplesPerSec - base.SamplesPerSec) / base.SamplesPerSec
	}
	low, high := speedupAt(10), speedupAt(100)
	if low <= high {
		t.Fatalf("ResNet50 PS speedup at 10Gbps (%.1f%%) not larger than at 100Gbps (%.1f%%)", low*100, high*100)
	}
}

func TestTransformerLoadBalancing(t *testing.T) {
	// §6.2: naive whole-tensor assignment leaves the PS severely
	// imbalanced for Transformer (dominant embedding); partitioning
	// rebalances it and contributes large gains.
	cfg := Config{
		Model:         model.Transformer(),
		Framework:     plugin.MXNet,
		Arch:          PS,
		Transport:     network.RDMA(),
		BandwidthGbps: 100,
		GPUs:          16,
		Policy:        core.FIFO(),
	}
	base := mustRun(t, cfg)
	if base.LoadImbalance < 1.1 {
		t.Fatalf("baseline load imbalance %.2f, want imbalanced", base.LoadImbalance)
	}
	bs := mustRun(t, scheduled(cfg, 4<<20, 16<<20))
	if bs.LoadImbalance >= base.LoadImbalance || bs.LoadImbalance > 1.1 {
		t.Fatalf("scheduled load imbalance %.2f (baseline %.2f), want balanced", bs.LoadImbalance, base.LoadImbalance)
	}
	if bs.SamplesPerSec <= base.SamplesPerSec {
		t.Fatal("balanced run not faster")
	}
}

func TestAsyncPSRuns(t *testing.T) {
	cfg := scheduled(vggPS(t, network.RDMA(), 100, 16), 4<<20, 16<<20)
	cfg.Async = true
	res := mustRun(t, cfg)
	sync := mustRun(t, scheduled(vggPS(t, network.RDMA(), 100, 16), 4<<20, 16<<20))
	// Async must be at least as fast as sync (no global wait), within
	// simulation tolerance.
	if res.SamplesPerSec < sync.SamplesPerSec*0.95 {
		t.Fatalf("async %.0f much slower than sync %.0f", res.SamplesPerSec, sync.SamplesPerSec)
	}
}

func TestAssignmentOverride(t *testing.T) {
	// The PS places whole tensors when the policy does not partition and
	// spreads partitions when it does: the same scheduled run leaves the PS
	// more imbalanced without partitions than with them.
	base := Config{
		Model:         model.Transformer(),
		Framework:     plugin.MXNet,
		Arch:          PS,
		Transport:     network.RDMA(),
		BandwidthGbps: 100,
		GPUs:          16,
	}
	whole := mustRun(t, scheduled(base, 0, 16<<20))
	spread := mustRun(t, scheduled(base, 4<<20, 16<<20))
	if whole.LoadImbalance <= spread.LoadImbalance {
		t.Fatalf("whole-tensor imbalance %.2f not worse than spread %.2f", whole.LoadImbalance, spread.LoadImbalance)
	}
}

func TestSpeedWithParams(t *testing.T) {
	cfg := vggPS(t, network.RDMA(), 100, 16)
	speed, err := SpeedWithParams(cfg, 4<<20, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	direct := mustRun(t, scheduled(cfg, 4<<20, 16<<20))
	if speed != direct.SamplesPerSec {
		t.Fatalf("SpeedWithParams %v != direct %v", speed, direct.SamplesPerSec)
	}
}

func TestLinearScaling(t *testing.T) {
	cfg := vggPS(t, network.RDMA(), 100, 64)
	if got := LinearScaling(cfg); got != 230*64 {
		t.Fatalf("LinearScaling = %v, want %v", got, 230*64)
	}
}
