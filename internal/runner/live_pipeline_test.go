package runner

import (
	"testing"
	"time"

	"bytescheduler/internal/core"
)

// TestReleaseWindowDefaults pins the release window of every configuration
// the repository runs: the default streams (1) except on coordinated rings,
// which hold each pass to its boundary; an explicit window is kept, and
// clamped to the layer count.
func TestReleaseWindowDefaults(t *testing.T) {
	ps, ring := liveBase(LiveBackendPS), liveBase(LiveBackendRing)
	layers := len(ps.LayerBytes)
	fifo := ring
	fifo.Policy = LiveFIFO()
	if !ring.coordinated() || fifo.coordinated() {
		t.Fatal("base ring should coordinate and the FIFO ring should not")
	}
	for _, c := range []struct {
		name   string
		cfg    LiveConfig
		window int
		want   int
	}{
		{"PS default", ps, 0, 1},
		{"PS hold", ps, layers, layers},
		{"FIFO ring default", fifo, 0, 1},
		{"coordinated ring default", ring, 0, layers},
		{"coordinated ring 2", ring, 2, 2},
		{"PS 1000", ps, 1000, layers},
		{"coordinated ring 1000", ring, 1000, layers},
	} {
		c.cfg.ReleaseWindow = c.window
		if got := c.cfg.releaseWindow(); got != c.want {
			t.Errorf("%s: releaseWindow() = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLivePipelineValidation(t *testing.T) {
	cfg := liveBase(LiveBackendPS)
	cfg.ReleaseWindow = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative release window accepted")
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
		cfg.ReleaseWindow = 2
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

// TestRunLivePipelineOffBothBackends runs the non-pipelined baseline, a
// window of the layer count: every pass held to its boundary, released in
// rank order, on both backends — the EXT-PRIORITY ablation's slow arm must at least complete
// and aggregate correctly.
func TestRunLivePipelineOffBothBackends(t *testing.T) {
	for _, backend := range []LiveBackend{LiveBackendPS, LiveBackendRing} {
		cfg := liveBase(backend)
		cfg.Workers = 2
		cfg.Priority = core.PriorityCriticalPath
		cfg.ReleaseWindow = len(cfg.LayerBytes)
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
		cfg.ReleaseWindow = len(cfg.LayerBytes)
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
// streamed (window 1), transfers overlap the backward pass, so the measured
// iteration should be faster than the pass-end run (window of the layer
// count) that serializes them.
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

	run := func(window int) float64 {
		cfg := base
		cfg.ReleaseWindow = window
		best := 0.0
		// Best-of-3 per window absorbs scheduler noise on shared machines.
		for rep := 0; rep < 3; rep++ {
			res, err := RunLive(cfg)
			if err != nil {
				t.Fatalf("window %d: %v", window, err)
			}
			if best == 0 || res.IterTime < best {
				best = res.IterTime
			}
		}
		return best
	}
	on, off := run(1), run(len(base.LayerBytes))
	if on <= 0 || off <= 0 {
		t.Fatalf("iteration times on %v off %v, want > 0", on, off)
	}
	t.Logf("pipelining on %.2fms, off %.2fms: speed-up %+.1f%%", on*1e3, off*1e3, (off/on-1)*100)
}
