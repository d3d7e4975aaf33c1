package experiments

import (
	"fmt"
	"time"

	"bytescheduler/internal/autotune"
	"bytescheduler/internal/core"
	"bytescheduler/internal/network"
	"bytescheduler/internal/runner"
	"bytescheduler/internal/stats"
	"bytescheduler/internal/tune"
)

// ExtAutoTune closes the AutoByte loop on the live PS path: an online
// controller (internal/autotune) tunes (partition, credit) mid-run, with
// no restarts, against a shaped link whose bandwidth collapses partway
// through.
//
// Three measurements share one fabric model:
//
//  1. Offline references: constant-liar BO over short fixed-config runs
//     under each link phase — the restart-per-probe optimum the online
//     controller is judged against.
//  2. One continuous online run: the controller must converge near the
//     phase-A offline optimum, settle, detect the phase-B bandwidth
//     collapse (injected through the fault-fabric model layered on the
//     shaped link), re-tune, and settle again near the phase-B optimum —
//     with at most one guarded rollback after the change.
//
// Like every live experiment this is wall-clock measurement over loopback
// TCP: the convergence ratios are reported against offline optima that are
// themselves noisy maxima, so the shape test gates them loosely
// (TestAutoTuneShape), leaving margin for shared CI machines.
func ExtAutoTune(o Opts) (Table, error) {
	const workers = 2
	// A mid-size profile: 6 layers, 1.25MB per worker per iteration. The
	// shaped serial link makes the (partition, credit) landscape real:
	// per-message overhead punishes small partitions, credit gates how
	// much of the serialized wire the urgent front layers can claim.
	layers := []int64{384 << 10, 256 << 10, 256 << 10, 192 << 10, 128 << 10, 64 << 10}
	// Phase A: a fast link; phase B: per-message overhead x5, less than
	// half the byte rate, plus retransmits from the PR1 fault model — the
	// injected bandwidth change.
	phaseA := runner.LinkShape{PerMessage: 250 * time.Microsecond, Gbps: 2}
	phaseB := runner.LinkShape{
		PerMessage: 1600 * time.Microsecond,
		Gbps:       0.6,
		Faults:     network.FaultConfig{DropProb: 0.05, RetransmitDelay: 2e-3},
	}

	trials, probeIters, changeAt, totalIters := 8, 9, 52, 108
	if o.Quick {
		trials, probeIters, changeAt, totalIters = 5, 8, 34, 76
	}
	const dwell = 3

	base := runner.LiveConfig{
		Backend:        runner.LiveBackendPS,
		Workers:        workers,
		LayerBytes:     layers,
		Policy:         core.ByteScheduler(256<<10, 1<<20),
		ForwardCompute: 300 * time.Microsecond,
		Seed:           o.Seed,
	}

	// Offline reference: BO with restarts, one short fixed-config run per
	// probe, scored by median iteration speed.
	offline := func(shape runner.LinkShape, seed int64) (tune.Result, error) {
		var runErr error
		bo := tune.NewBO(tune.ParamBounds(), seed)
		res := tune.PartitionCredit(bo, func(p, c int64) float64 {
			if runErr != nil {
				return 0
			}
			p -= p % 4
			cfg := base
			cfg.Policy = core.ByteScheduler(p, c)
			cfg.Iterations, cfg.Warmup = probeIters, 2
			cfg.Shape = []runner.LinkShape{shape}
			r, err := runner.RunLive(cfg)
			if err != nil {
				runErr = err
				return 0
			}
			return 1 / stats.Percentile(r.IterTimes, 50)
		}, trials)
		return res, runErr
	}
	offA, err := offline(phaseA, o.Seed+1)
	if err != nil {
		return Table{}, fmt.Errorf("offline reference (phase A): %w", err)
	}
	offB, err := offline(phaseB, o.Seed+2)
	if err != nil {
		return Table{}, fmt.Errorf("offline reference (phase B): %w", err)
	}

	// The continuous online run across the bandwidth change.
	cfg := base
	cfg.Iterations, cfg.Warmup = totalIters, 2
	shapeB := phaseB
	shapeB.FromIter = changeAt
	cfg.Shape = []runner.LinkShape{phaseA, shapeB}
	// Phase B halves throughput or worse; the controller's fixed 30 %
	// retune bar leaves a wide margin on both sides (no spurious retunes
	// from ±10% window noise, no missed detection of the real change).
	cfg.AutoTune = &autotune.Config{
		Suggester:  "bo",
		Seed:       o.Seed + 3,
		DwellIters: dwell,
		Trials:     trials,
	}
	live, err := runner.RunLive(cfg)
	if err != nil {
		return Table{}, fmt.Errorf("online autotuned run: %w", err)
	}
	rep := live.AutoTune

	// Walk the decision log: episode-1 adoption speed, rollbacks after the
	// first retune, episode-2 adoption speed.
	var adoptA, adoptB autotune.Decision
	retuneAt, lateRollbacks := -1, 0
	for i, d := range rep.Decisions {
		switch d.Action {
		case "adopt":
			if retuneAt < 0 && adoptA.Speed == 0 {
				adoptA = d
			} else if retuneAt >= 0 {
				adoptB = d
			}
		case "retune":
			if retuneAt < 0 {
				retuneAt = i
			}
		case "rollback":
			if retuneAt >= 0 {
				lateRollbacks++
			}
		}
	}
	settledB := adoptB.Speed
	if rep.Settled && rep.SettledSpeed > 0 {
		settledB = rep.SettledSpeed
	}

	convergeRatio := adoptA.Speed / offA.Speed
	reconvergeRatio := settledB / offB.Speed

	row := func(leg string, s autotune.Setting, speed float64, note string) []string {
		return []string{leg, mb(s.Partition), mb(s.Credit), f1(speed), note}
	}
	tab := Table{
		ID: "EXT-AUTOTUNE",
		Title: fmt.Sprintf("closed-loop online (partition, credit) tuning on live PS: %d workers, bandwidth change at iter %d",
			workers, changeAt),
		Columns: []string{"leg", "part_MB", "credit_MB", "speed_it/s", "note"},
		Rows: [][]string{
			row("offline BO, phase A", autotune.Setting{Partition: offA.Partition, Credit: offA.Credit}, offA.Speed,
				fmt.Sprintf("%d restart probes", trials)),
			row("online, phase A", adoptA.Setting, adoptA.Speed,
				fmt.Sprintf("adopted, %.0f%% of offline", convergeRatio*100)),
			row("offline BO, phase B", autotune.Setting{Partition: offB.Partition, Credit: offB.Credit}, offB.Speed,
				fmt.Sprintf("%d restart probes", trials)),
			row("online, phase B", adoptB.Setting, settledB,
				fmt.Sprintf("re-converged, %.0f%% of offline", reconvergeRatio*100)),
		},
		Metrics: map[string]float64{
			"offline_a_speed":   offA.Speed,
			"online_a_speed":    adoptA.Speed,
			"offline_b_speed":   offB.Speed,
			"online_b_speed":    settledB,
			"converge_ratio":    convergeRatio,
			"reconverge_ratio":  reconvergeRatio,
			"retunes":           float64(rep.Retunes),
			"rollbacks_post":    float64(lateRollbacks),
			"rollbacks_total":   float64(rep.Rollbacks),
			"probes":            float64(rep.Probes),
			"episodes":          float64(rep.Episodes),
			"settled_at_end":    b2f(rep.Settled),
			"decision_count":    float64(len(rep.Decisions)),
			"online_iterations": float64(totalIters),
		},
		Notes: []string{
			fmt.Sprintf("controller made %d decisions over %d iterations with no restarts: %d probes, %d retune(s), %d rollback(s)",
				len(rep.Decisions), totalIters, rep.Probes, rep.Retunes, rep.Rollbacks),
			"offline references restart per probe; the online controller pays only dwell windows on the live job",
			"wall-clock over loopback TCP: ratios vary run to run, and the offline optimum is itself a noisy maximum",
		},
	}
	return tab, nil
}

// b2f renders a bool as a 0/1 metric.
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
