package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"bytescheduler/internal/core"
	"bytescheduler/internal/model"
	"bytescheduler/internal/runner"
)

// ExtPriority is the priority-strategy shootout plus the cross-iteration
// pipelining measurement.
//
// The sim leg runs the model zoo (VGG16, ResNet50, Transformer) under
// identical ByteScheduler partitioning with every priority policy: layer
// order (the paper's choice), TicTac-style critical path (ranks derived
// from the engine's DAG timings — remaining transfer + forward-compute
// path to the op consuming the pulled parameter), and random (the
// ablation floor). The artifact under test is the shape claim that
// DAG-aware orders beat FIFO and random never wins.
//
// The live leg measures what priorities alone cannot show in simulation:
// cross-iteration pipelining. With pipelining off, every gradient is held
// to its pass boundary and released in rank order — the non-pipelined
// scheduled baseline (TicTac's regime). With pipelining on, the streaming
// release admits iteration i+1's urgent tensors while iteration i is
// still finishing, overlapping transfers with backward compute on both
// backends (PS split-phase and the coordinated ring). Like EXT-RING and
// EXT-FUSION this is wall clock over loopback, so legs run in interleaved
// repetitions scored by best median iteration, and Experiment.Live is
// true (determinism harnesses skip it).
func ExtPriority(o Opts) (Table, error) {
	tab := Table{
		ID:      "EXT-PRIORITY",
		Title:   "priority policies (sim zoo, samples/s) + cross-iteration pipelining (live, iter_ms)",
		Columns: []string{"leg", "config", "value", "delta_pct"},
		Metrics: map[string]float64{},
	}

	// --- sim leg: policy shootout across the model zoo ---
	models := []*model.Model{model.VGG16(), model.ResNet50(), model.Transformer()}
	policies := []core.PriorityPolicy{core.PriorityLayer, core.PriorityCriticalPath, core.PriorityRandom}
	// model x (fifo + policies) grid, index-addressed for the worker pool.
	speeds := make([]float64, len(models)*(len(policies)+1))
	stride := len(policies) + 1
	if err := o.parallel(len(speeds), func(k int) error {
		m, pi := models[k/stride], k%stride
		part, credit := calibratedParams(runner.PS, m.Name)
		cfg := ablationBase()
		cfg.Model = m
		cfg.Seed = o.Seed
		if pi > 0 {
			cfg = scheduledCfg(cfg, part, credit)
			cfg.Priority = policies[pi-1]
		}
		res, err := o.run(cfg)
		if err != nil {
			return err
		}
		speeds[k] = res.SamplesPerSec
		return nil
	}); err != nil {
		return Table{}, err
	}
	tictacMin, tictacMax := math.Inf(1), math.Inf(-1)
	for mi, m := range models {
		fifo := speeds[mi*stride]
		tab.Rows = append(tab.Rows, []string{"sim " + m.Name, "fifo", f0(fifo), "0.0"})
		for pi, p := range policies {
			v := speeds[mi*stride+1+pi]
			sp := speedupPct(fifo, v)
			tab.Rows = append(tab.Rows, []string{"sim " + m.Name, p.String(), f0(v), f1(sp)})
			tab.Metrics[strings.ToLower(m.Name)+"_"+p.String()+"_pct"] = sp
			if p == core.PriorityCriticalPath {
				tictacMin = math.Min(tictacMin, sp)
				tictacMax = math.Max(tictacMax, sp)
			}
		}
	}
	// Compute-bound models (ResNet50) hide communication entirely, so the
	// min is ~0 there by design; the max captures the communication-bound
	// headline.
	tab.Metrics["sim_tictac_min_pct"] = tictacMin
	tab.Metrics["sim_tictac_max_pct"] = tictacMax

	// --- live leg: pipelining on vs off, both backends ---
	// Uniform layers and layer-order ranks isolate the variable under
	// test — release discipline — from priority-order effects; slow
	// backward compute and a shaped link make the transfers pipelining
	// hides material on loopback. (On a rear-heavy profile the tictac
	// ranks promote the fat tail over the forward-blocking front layers,
	// which delays the next forward start and can cancel the overlap win;
	// the sim leg above is where rank-order effects are measured.)
	layers := []int64{256 << 10, 256 << 10, 256 << 10, 256 << 10, 256 << 10, 256 << 10}
	iters, warmup, reps := 10, 2, 3
	if o.Quick {
		iters, warmup, reps = 8, 2, 2
	}
	arm := func(backend runner.LiveBackend, mode string, window int) *liveLeg {
		workers := 2
		if backend == runner.LiveBackendRing {
			workers = 3
		}
		cfg := runner.LiveConfig{
			Backend:         backend,
			Workers:         workers,
			LayerBytes:      layers,
			Policy:          core.ByteScheduler(64<<10, 256<<10),
			Priority:        core.PriorityLayer,
			ReleaseWindow:   window,
			Iterations:      iters,
			Warmup:          warmup,
			ForwardCompute:  200 * time.Microsecond,
			BackwardCompute: 2 * time.Millisecond,
			Shape:           []runner.LinkShape{{PerMessage: 300 * time.Microsecond, Gbps: 3.2}},
			Seed:            o.Seed,
		}
		return &liveLeg{name: fmt.Sprintf("%s pipeline %s", backend, mode), cfg: func() runner.LiveConfig { return cfg }}
	}
	// Off holds each pass to its boundary. On streams: PS tasks as they are
	// emitted; ring tasks through a two-task lookahead, which releases the
	// first gradients two layers into the backward pass — overlap in the
	// peers' agreed order.
	backends := []runner.LiveBackend{runner.LiveBackendPS, runner.LiveBackendRing}
	var legs []*liveLeg // off, on per backend
	for _, b := range backends {
		on := 1
		if b == runner.LiveBackendRing {
			on = 2
		}
		legs = append(legs, arm(b, "off", len(layers)), arm(b, "on", on))
	}
	if err := bestMedians(reps, legs); err != nil {
		return Table{}, err
	}
	for i, b := range backends {
		off, on := legs[2*i], legs[2*i+1]
		name, key := "live "+b.String(), b.String()
		sp := (off.iter/on.iter - 1) * 100
		tab.Rows = append(tab.Rows,
			[]string{name, "pipeline off", f1(off.iter * 1e3), "0.0"},
			[]string{name, "pipeline on", f1(on.iter * 1e3), f1(sp)})
		tab.Metrics[key+"_pipeline_speedup_pct"] = sp
		tab.Metrics[key+"_off_iter_ms"] = off.iter * 1e3
		tab.Metrics[key+"_on_iter_ms"] = on.iter * 1e3
	}
	tab.Notes = append(tab.Notes,
		"sim rows are samples/s vs the FIFO baseline; live rows are wall-clock iter_ms, pipelining on vs the pass-end (non-pipelined scheduled) baseline",
		fmt.Sprintf("live legs: best median over %d interleaved repetitions, layer ranks, coordinated streaming release on the ring", reps),
	)
	return tab, nil
}
