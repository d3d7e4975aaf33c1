package experiments

import (
	"fmt"
	"math"
	"time"

	"bytescheduler/internal/core"
	"bytescheduler/internal/runner"
	"bytescheduler/internal/stats"
)

// ExtLiveRing runs the live segmented ring all-reduce backend (internal/
// netar): real goroutine peers exchanging gradients over loopback TCP,
// scheduled by the same core scheduler the simulator uses. It reproduces
// the paper's central claim on a live wire instead of the simulator —
// priority-scheduled partitioned all-reduce beats the unscheduled FIFO
// baseline on the identical topology — and then closes the loop with the
// analytic model: an alpha-beta cost model calibrated from two ring
// microbenchmarks must predict both a third collective size and the FIFO
// iteration period within a factor of 2.5.
//
// Unlike every other experiment this one measures wall-clock time on a
// shared machine, so its metrics are measurements, not derivations:
// reruns produce different bits, and the determinism harnesses skip it
// (see Experiment.Live). The two arms are scored by bestMedians.
func ExtLiveRing(o Opts) (Table, error) {
	const workers = 3
	// Rear-heavy layer sizes (VGG-like: small convolutions in front, fat
	// fully-connected layers in back). The FIFO baseline emits back-to-
	// front, so the front layer — the one the next forward pass needs
	// first — arrives last; priority scheduling inverts that.
	layers := []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 1 << 20, 1 << 20}
	iters, warmup, reps, liveReps := 16, 3, 5, 3
	if o.Quick {
		iters, warmup, reps, liveReps = 10, 2, 3, 2
	}
	base := runner.LiveConfig{
		Backend:         runner.LiveBackendRing,
		Workers:         workers,
		LayerBytes:      layers,
		Iterations:      iters,
		Warmup:          warmup,
		ForwardCompute:  2 * time.Millisecond,
		BackwardCompute: 200 * time.Microsecond,
		Seed:            o.Seed,
	}

	arm := func(name string, p core.Policy) *liveLeg {
		return &liveLeg{name: name, cfg: func() runner.LiveConfig {
			cfg := base
			cfg.Policy = p
			return cfg
		}}
	}
	sched, fifo := arm("scheduled ring", core.ByteScheduler(512<<10, 1<<20)), arm("fifo ring", runner.LiveFIFO())
	if err := bestMedians(liveReps, []*liveLeg{sched, fifo}); err != nil {
		return Table{}, err
	}
	schedIter, schedRes, fifoIter := sched.iter, sched.res, fifo.iter

	// Alpha-beta calibration: measure the full collective at two sizes,
	// fit t(n) = alpha + beta*n, then check the model against a third,
	// unseen size. n counts fp32 elements.
	n1, n2, n3 := 16<<10, 128<<10, 64<<10 // 64KB, 512KB, 256KB
	t1, err := runner.MeasureRingCollective(workers, n1, reps)
	if err != nil {
		return Table{}, err
	}
	t2, err := runner.MeasureRingCollective(workers, n2, reps)
	if err != nil {
		return Table{}, err
	}
	t3, err := runner.MeasureRingCollective(workers, n3, reps)
	if err != nil {
		return Table{}, err
	}
	beta := (t2 - t1) / float64(n2-n1)
	alpha := t1 - beta*float64(n1)
	model := func(floats int) float64 { return alpha + beta*float64(floats) }
	collRatio := t3 / model(n3)

	// FIFO iteration prediction, by list scheduling: the backward pass
	// emits layer l's gradient once layers L-1..l are computed, the baseline
	// starts each whole-tensor collective at the later of its gradient's
	// emission and the previous collective's end, and the front layer —
	// needed first by the next forward pass — is emitted last, so the whole
	// forward pass follows the last collective.
	var pred float64
	for l := len(layers) - 1; l >= 0; l-- {
		emitted := float64(len(layers)-l) * base.BackwardCompute.Seconds()
		pred = max(pred, emitted) + model(int(layers[l]/4))
	}
	pred += float64(len(layers)) * base.ForwardCompute.Seconds()
	iterRatio := fifoIter / pred

	// Iteration times are costs (lower is better): speedup is how much
	// faster the scheduled run finishes an iteration than the baseline.
	speedup := (fifoIter/schedIter - 1) * 100

	tab := Table{
		ID:      "EXT-RING",
		Title:   fmt.Sprintf("live ring all-reduce over TCP: %d workers x %d layers (netar)", workers, len(layers)),
		Columns: []string{"policy", "iter_ms", "speedup_pct"},
		Rows: [][]string{
			{"bytescheduler 0.5/1MB", f1(schedIter * 1e3), f1(speedup)},
			{"fifo (unscheduled)", f1(fifoIter * 1e3), "0.0"},
		},
		Metrics: map[string]float64{
			"sched_iter_ms":              schedIter * 1e3,
			"fifo_iter_ms":               fifoIter * 1e3,
			"speedup_pct":                speedup,
			"subs_finished":              float64(schedRes.Stats.SubsFinished),
			"collective_agreement_ratio": collRatio,
			"iter_agreement_ratio":       iterRatio,
		},
		Notes: []string{
			fmt.Sprintf("alpha=%.0fus beta=%.1fns/float from %dKB and %dKB collectives; unseen %dKB predicted within %.2fx",
				alpha*1e6, beta*1e9, n1*4>>10, n2*4>>10, n3*4>>10, collRatio),
			fmt.Sprintf("model predicts the unscheduled iteration at %.1fms vs %.1fms measured (%.2fx)",
				pred*1e3, fifoIter*1e3, iterRatio),
			fmt.Sprintf("iteration times are the best median over %d interleaved repetitions; wall-clock on a shared machine varies between runs", liveReps),
		},
	}
	return tab, nil
}

// liveLeg is one arm of a live wall-clock comparison.
type liveLeg struct {
	name string
	// cfg builds the arm's config once per run, so an arm can hand every
	// run a fresh metrics registry.
	cfg func() runner.LiveConfig
	// iter is the arm's best median iteration time in seconds; res is its
	// last run's result (counters are deterministic per run, timings are
	// not).
	iter float64
	res  runner.LiveResult
}

// bestMedians runs every leg reps times, interleaved (A B C A B C ...) so
// slow phases of a shared machine hit every leg rather than one, and
// scores each leg by its best median iteration time — the standard
// noisy-microbenchmark estimator: loopback on a shared machine varies 2x
// between identical runs, and the minimum discards scheduler stalls, which
// only ever add time.
func bestMedians(reps int, legs []*liveLeg) error {
	for _, l := range legs {
		l.iter = math.Inf(1)
	}
	for r := 0; r < reps; r++ {
		for _, l := range legs {
			res, err := runner.RunLive(l.cfg())
			if err != nil {
				return fmt.Errorf("live %s: %w", l.name, err)
			}
			l.iter = math.Min(l.iter, stats.Percentile(res.IterTimes, 50))
			l.res = res
		}
	}
	return nil
}
