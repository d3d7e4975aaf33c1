package runner

import (
	"testing"
	"time"

	"bytescheduler/internal/core"
)

func TestParsePipelineMode(t *testing.T) {
	cases := map[string]PipelineMode{
		"": PipelineAuto, "auto": PipelineAuto,
		"on": PipelineOn, "stream": PipelineOn,
		"off": PipelineOff, "passend": PipelineOff,
	}
	for in, want := range cases {
		got, err := ParsePipelineMode(in)
		if err != nil || got != want {
			t.Fatalf("ParsePipelineMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePipelineMode("bogus"); err == nil {
		t.Fatal("bogus pipeline mode accepted")
	}
	for _, m := range []PipelineMode{PipelineAuto, PipelineOn, PipelineOff} {
		round, err := ParsePipelineMode(m.String())
		if err != nil || round != m {
			t.Fatalf("String/Parse round trip for %v: got %v, %v", m, round, err)
		}
	}
}

func TestLivePipelineValidation(t *testing.T) {
	cfg := liveBase(LiveBackendPS)
	cfg.PipelineWindow = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative pipeline window accepted")
	}
	cfg = liveBase(LiveBackendPS)
	cfg.Priority = core.PriorityPolicy(99)
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown priority policy accepted")
	}
}

// TestLivePriorityMakesRingCoordinated pins the safety interlock: a policy
// with no PriorityFn of its own still selects coordinated release once a
// priority strategy is configured, because the materialized rank table
// turns streaming admission into diverging per-peer orders.
func TestLivePriorityMakesRingCoordinated(t *testing.T) {
	cfg := liveBase(LiveBackendRing)
	cfg.Policy = core.Policy{Name: "bytescheduler", PartitionUnit: 8 << 10, CreditBytes: 48 << 10}
	if cfg.coordinated() {
		t.Fatal("priority-less policy should not coordinate")
	}
	cfg.Priority = core.PriorityRandom
	if !cfg.coordinated() {
		t.Fatal("priority strategy on the ring with credit must coordinate")
	}
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

// TestRunLivePipelinedRingAnyCredit is the acceptance gate for the
// streaming coordinated release: cross-iteration pipelining on the ring
// must be deadlock-free at any credit — including a 1-byte window
// (head-only admission) and a single-partition window — with peer skew
// putting two iterations in flight at the transport. Random priorities are
// the adversarial case (maximally divergent from emission order), and the
// worker's aggregation check catches any cross-iteration frame mixing.
func TestRunLivePipelinedRingAnyCredit(t *testing.T) {
	for _, credit := range []int64{1, 8 << 10, 1 << 30} {
		cfg := liveBase(LiveBackendRing)
		cfg.Policy = core.ByteScheduler(8<<10, credit)
		cfg.Priority = core.PriorityRandom
		cfg.Pipeline = PipelineOn
		cfg.PipelineWindow = 2
		cfg.Iterations, cfg.Warmup = 8, 1
		if !cfg.coordinated() {
			t.Fatal("config should select coordinated release")
		}
		res, err := RunLive(cfg)
		if err != nil {
			t.Fatalf("credit %d: %v", credit, err)
		}
		if res.Stats.SubsFinished == 0 {
			t.Fatalf("credit %d: no sub-tasks finished", credit)
		}
	}
}

// TestRunLivePipelineOffBothBackends runs the non-pipelined baseline mode:
// every pass held to its boundary, released in rank order, on both
// backends — the EXT-PRIORITY ablation's slow arm must at least complete
// and aggregate correctly.
func TestRunLivePipelineOffBothBackends(t *testing.T) {
	for _, backend := range []LiveBackend{LiveBackendPS, LiveBackendRing} {
		cfg := liveBase(backend)
		cfg.Workers = 2
		cfg.Priority = core.PriorityCriticalPath
		cfg.Pipeline = PipelineOff
		res, err := RunLive(cfg)
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if res.Stats.SubsFinished == 0 {
			t.Fatalf("%v: no sub-tasks finished", backend)
		}
	}
}

// TestRunLivePipelineOffFused holds fused passes to their boundary (once
// refused): the buckets still form mid-pass, and the full window releases
// them with the plain tasks, best rank first, on both backends.
func TestRunLivePipelineOffFused(t *testing.T) {
	for _, backend := range []LiveBackend{LiveBackendPS, LiveBackendRing} {
		cfg := liveBase(backend)
		cfg.Workers = 2
		cfg.LayerBytes = fusedLayers
		cfg.FuseTheta = 4 << 10
		cfg.Pipeline = PipelineOff
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
// wall-clock claim, on one backend with deliberately slow backward compute:
// with pipelining on, transfers overlap the backward pass, so the measured
// iteration should be faster than the pass-end run that serializes them.
// The speed-up is logged, not gated: this is wall clock on a shared
// machine, and the benchmark (bench/, runner.sched_speedup_x) owns the
// timing claims.
func TestLivePipelineOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison")
	}
	base := liveBase(LiveBackendPS)
	base.Workers = 2
	base.LayerBytes = []int64{256 << 10, 256 << 10, 256 << 10, 256 << 10, 256 << 10, 256 << 10}
	base.Policy = core.ByteScheduler(64<<10, 256<<10)
	base.Priority = core.PriorityLayer
	base.Iterations, base.Warmup = 8, 2
	base.ForwardCompute = 200 * time.Microsecond
	base.BackwardCompute = 2 * time.Millisecond
	base.Shape = []LinkShape{{PerMessage: 300 * time.Microsecond, Gbps: 3.2}}

	run := func(mode PipelineMode) float64 {
		cfg := base
		cfg.Pipeline = mode
		best := 0.0
		// Best-of-3 per mode absorbs scheduler noise on shared machines.
		for rep := 0; rep < 3; rep++ {
			res, err := RunLive(cfg)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if best == 0 || res.IterTime < best {
				best = res.IterTime
			}
		}
		return best
	}
	on, off := run(PipelineOn), run(PipelineOff)
	if on <= 0 || off <= 0 {
		t.Fatalf("iteration times on %v off %v, want > 0", on, off)
	}
	t.Logf("pipelining on %.2fms, off %.2fms: speed-up %+.1f%%", on*1e3, off*1e3, (off/on-1)*100)
}
