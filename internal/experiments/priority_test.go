package experiments

import (
	"reflect"
	"testing"

	"bytescheduler/internal/core"
	"bytescheduler/internal/runner"
	"bytescheduler/internal/sweep"
)

// TestExtPriorityMarkedLive pins the registry contract: EXT-PRIORITY's
// live legs are wall-clock over loopback, so the determinism
// harnesses must skip its bitwise comparison.
func TestExtPriorityMarkedLive(t *testing.T) {
	e, err := ByID("EXT-PRIORITY")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Live() {
		t.Fatal("EXT-PRIORITY not marked live")
	}
}

// TestPriorityPoliciesDeterministic pins the determinism contract for the
// priority strategies: a simulated grid run under every policy — random
// ranks included, whose table is derived purely from the seed — produces
// bitwise-identical results on a 1-worker and a 4-worker sweep engine with
// cold private caches. Worker interleaving must never leak into results;
// the live runs are exempted from this contract through
// Experiment.Live (see TestExtPriorityMarkedLive).
func TestPriorityPoliciesDeterministic(t *testing.T) {
	policies := []core.PriorityPolicy{
		core.PriorityDefault, core.PriorityLayer, core.PriorityCriticalPath, core.PriorityRandom,
	}
	for _, p := range policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			var cfgs []runner.Config
			for _, gpus := range []int{8, 16} {
				for _, seed := range []int64{1, 7} {
					cfg := scheduledCfg(ablationBase(), 2<<20, 8<<20)
					cfg.Priority = p
					cfg.GPUs = gpus
					cfg.Seed = seed
					cfgs = append(cfgs, cfg)
				}
			}
			run := func(workers int) []runner.Result {
				e := sweep.New(sweep.WithWorkers(workers))
				out := make([]runner.Result, len(cfgs))
				if err := e.Map(len(cfgs), func(i int) error {
					res, err := e.Run(cfgs[i])
					out[i] = res
					return err
				}); err != nil {
					t.Fatal(err)
				}
				return out
			}
			serial, parallel := run(1), run(4)
			for i := range cfgs {
				if !reflect.DeepEqual(serial[i], parallel[i]) {
					t.Fatalf("grid point %d diverged across worker counts:\nserial   %+v\nparallel %+v",
						i, serial[i], parallel[i])
				}
			}
		})
	}
}

// TestExtPriorityShape runs the shootout end-to-end and checks its
// deterministic claim — DAG-derived critical-path priorities beat FIFO on
// every zoo model in simulation — and that the live legs ran: FIFO and the
// scheduler on both backends, which under -race is the ring's master Core
// with two iterations in flight, the interleaving the detector should
// watch. The live speed-up is logged, not gated (see TestLiveRingShape).
func TestExtPriorityShape(t *testing.T) {
	tab := runExp(t, ExtPriority)
	// Deterministic sim: critical-path priority must never lose to FIFO
	// (compute-bound ResNet50 ties at 0) and must win outright on the
	// communication-bound models.
	if sp := tab.Metrics["sim_tictac_min_pct"]; sp < 0 {
		t.Fatalf("critical-path priority lost to FIFO: min %.1f%%", sp)
	}
	if sp := tab.Metrics["sim_tictac_max_pct"]; sp <= 0 {
		t.Fatalf("critical-path priority never beat FIFO: max %.1f%%", sp)
	}
	for _, backend := range []string{"ps", "ring"} {
		for _, m := range []string{backend + "_fifo_iter_ms", backend + "_sched_iter_ms"} {
			if tab.Metrics[m] <= 0 {
				t.Fatalf("%s = %v, want > 0", m, tab.Metrics[m])
			}
		}
		t.Logf("%s: scheduler vs FIFO: %+.1f%%", backend, tab.Metrics[backend+"_sched_speedup_pct"])
	}
}
