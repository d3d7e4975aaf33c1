package runner

import (
	"strings"
	"testing"
	"time"

	"bytescheduler/internal/autotune"
	"bytescheduler/internal/core"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/network"
)

func TestRunLiveAutoTunePS(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := liveBase(LiveBackendPS)
	cfg.Workers = 2
	cfg.Metrics = reg
	// Shape the link so iteration time is sleep-dominated: bare loopback
	// is noisy enough to fake regressions and destabilize the assertion.
	cfg.Shape = []LinkShape{{FromIter: 0, PerMessage: 150 * time.Microsecond}}
	cfg.AutoTune = &autotune.Config{Suggester: "random", Seed: 2, DwellIters: 2, Trials: 3}
	// The second worker pins an iteration at most one ahead of worker 0's
	// observations (its forward pass waits on worker 0's last push), so the
	// first episode adopts before BudgetIters(0, 1), which
	// autotune.TestSettleBoundProperty proves; the run observes iterations
	// up to Iterations-2. What happens after the adopt — a retune opened by
	// loopback noise in speed or op latency — is the controller's business.
	budget := cfg.AutoTune.BudgetIters(0, 1)
	cfg.Iterations, cfg.Warmup = budget+4, 1
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.AutoTune
	if rep == nil {
		t.Fatal("no autotune report on an autotuned run")
	}
	if rep.Probes < 3 {
		t.Errorf("probes = %d, want >= 3", rep.Probes)
	}
	adopted := -1
	for _, d := range rep.Decisions {
		if d.Action == "adopt" {
			adopted = d.Iter
			break
		}
	}
	if adopted < 0 || adopted >= budget {
		t.Errorf("first adopt at iteration %d, want one before %d: %+v", adopted, budget, rep.Decisions)
	}
	if rep.BestSpeed <= 0 {
		t.Errorf("best speed %v, want > 0", rep.BestSpeed)
	}
	if got := reg.Counter("autotune_decisions_total").Value(); got == 0 {
		t.Error("autotune_decisions_total = 0: controller not wired to metrics")
	}
	if got := reg.Gauge("autotune_partition_bytes").Value(); got <= 0 {
		t.Errorf("autotune_partition_bytes = %d, want > 0", got)
	}
}

// TestRunLiveAutoTuneRing checks the ring survives live (partition,
// credit) swaps: only rank 0's scheduler applies them, and each admission
// carries the cut, so the followers start exactly what it admits.
func TestRunLiveAutoTuneRing(t *testing.T) {
	cfg := liveBase(LiveBackendRing)
	cfg.AutoTune = &autotune.Config{Suggester: "random", Seed: 4, DwellIters: 2, Trials: 2}
	cfg.Iterations, cfg.Warmup = cfg.AutoTune.BudgetIters(0, 1)+3, 1
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoTune == nil || len(res.AutoTune.Decisions) == 0 {
		t.Fatalf("no autotune decisions: %+v", res.AutoTune)
	}
}

func TestRunLiveAutoTuneNeedsScheduledPolicy(t *testing.T) {
	cfg := liveBase(LiveBackendPS)
	cfg.Policy = LiveFIFO()
	cfg.AutoTune = &autotune.Config{}
	if _, err := RunLive(cfg); err == nil || !strings.Contains(err.Error(), "scheduled starting policy") {
		t.Fatalf("err = %v, want scheduled-policy validation error", err)
	}
}

// TestRunLiveAutoTuneFusedPS tunes a fused PS run starting from a credit
// smaller than one fused bucket (once refused). When fused transfers held
// their credit through the blocking pull, such a window cross-deadlocked
// workers whose windows held different buckets; with every transport
// split-phase the credit is back at push-ack, so any credit the controller
// probes must complete.
func TestRunLiveAutoTuneFusedPS(t *testing.T) {
	cfg := liveBase(LiveBackendPS)
	cfg.LayerBytes = fusedLayers
	cfg.FuseTheta = 4 << 10
	cfg.Policy = core.ByteScheduler(8<<10, 1<<10)
	cfg.AutoTune = &autotune.Config{Suggester: "random", Seed: 4, DwellIters: 2, Trials: 2}
	cfg.Iterations, cfg.Warmup = cfg.AutoTune.BudgetIters(0, 1)+3, 1
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoTune == nil || len(res.AutoTune.Decisions) == 0 {
		t.Fatalf("no autotune decisions: %+v", res.AutoTune)
	}
}

func TestRunLiveShaped(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := liveBase(LiveBackendPS)
	cfg.Workers = 2
	cfg.Metrics = reg
	cfg.Shape = []LinkShape{
		{FromIter: 0, PerMessage: 50 * time.Microsecond},
		{FromIter: 3, PerMessage: 100 * time.Microsecond, Gbps: 4,
			Faults: network.FaultConfig{DropProb: 0.2, RetransmitDelay: 100e-6}},
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTime <= 0 {
		t.Fatalf("IterTime = %v, want > 0", res.IterTime)
	}
	if got := reg.Counter("live_shaped_msgs_total").Value(); got == 0 {
		t.Error("live_shaped_msgs_total = 0: shaper not on the message path")
	}
}

func TestValidateShape(t *testing.T) {
	bad := []struct {
		name  string
		shape []LinkShape
	}{
		{"unsorted", []LinkShape{{FromIter: 5}, {FromIter: 5}}},
		{"negative iter", []LinkShape{{FromIter: -1}}},
		{"negative rate", []LinkShape{{Gbps: -2}}},
		{"outage", []LinkShape{{Faults: network.FaultConfig{Outages: []network.Outage{{Start: 0, Duration: 1}}}}}},
		{"bad drop prob", []LinkShape{{Faults: network.FaultConfig{DropProb: 1.5}}}},
	}
	for _, tc := range bad {
		cfg := liveBase(LiveBackendPS)
		cfg.Shape = tc.shape
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid shape accepted", tc.name)
		}
	}
	cfg := liveBase(LiveBackendPS)
	cfg.Shape = []LinkShape{{FromIter: 0, PerMessage: time.Millisecond}, {FromIter: 4, Gbps: 1}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
}
