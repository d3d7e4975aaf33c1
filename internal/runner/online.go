package runner

import (
	"fmt"

	"bytescheduler/internal/autotune"
	"bytescheduler/internal/sim"
)

// onlineSteadyWindows is how many settled windows the iteration budget
// leaves after the search, for FinalSpeed to average.
const onlineSteadyWindows = 2

// OnlineConfig drives runtime auto-tuning: the paper's actual deployment
// mechanism (§4.3, §5), where worker 0's Core profiles the training speed
// of candidate (partition, credit) configurations on the running job and
// Bayesian Optimization proposes the next candidate.
type OnlineConfig struct {
	// Config is the training setup; its Policy provides the starting
	// partition/credit values and Iterations is ignored (derived from
	// AutoTune's warmup, dwell and trial counts).
	Config
	// AutoTune parameterizes the controller — the same autotune.Controller
	// RunLive drives, here fed virtual iteration times.
	AutoTune autotune.Config
	// RestartPenalty models the PS-mode checkpoint-restart cost paid on
	// every partition-size change (§5: ~5-9 s per restart); the penalty is
	// accounted in TuningOverhead rather than simulated. All-reduce
	// adjusts knobs live and pays nothing.
	RestartPenalty float64
}

// OnlineResult summarizes an online-tuned run.
type OnlineResult struct {
	// Report is the controller's own summary; its speeds are iterations
	// per second.
	Report autotune.Report
	// SamplesPerIter scales Report's speeds to samples per second.
	SamplesPerIter float64
	// FirstSpeed is the baseline window's speed at the starting
	// configuration; FinalSpeed the mean over the steady windows after the
	// search settled. Both in samples per second.
	FirstSpeed, FinalSpeed float64
	// Restarts counts the decisions whose partition differs from the
	// previous one (PS restarts); TuningOverhead is
	// Restarts*RestartPenalty seconds on PS and 0 on all-reduce.
	Restarts       int
	TuningOverhead float64
}

// RunOnlineTuned executes one simulated training job while
// autotune.Controller tunes partition and credit sizes on the fly. Unlike
// Tune-by-replay (SpeedWithParams), every sample comes from a window of
// the same continuous run, with compute jitter noise if configured — the
// regime Bayesian Optimization's noise resilience is for. The controller
// sees virtual time, so its rollback, revalidate and settle are
// reproducible bit for bit.
func RunOnlineTuned(oc OnlineConfig) (OnlineResult, error) {
	cfg := oc.Config.withDefaults()
	if !cfg.Scheduled {
		return OnlineResult{}, fmt.Errorf("runner: online tuning needs a scheduled starting policy")
	}
	cur := autotune.Setting{Partition: cfg.Policy.PartitionUnit, Credit: cfg.Policy.CreditBytes}
	ctrl, err := autotune.New(cur, oc.AutoTune)
	if err != nil {
		return OnlineResult{}, err
	}
	// One timing worker observes every iteration before pinning the next, so
	// no iteration is pinned ahead of a switch: skew 0.
	cfg.Iterations = oc.AutoTune.BudgetIters(onlineSteadyWindows, 0) + 1 // +1: the last boundary
	cfg.Warmup = 0

	var (
		w    *world
		prev float64
	)
	engCfg := engineConfig(cfg)
	engCfg.OnIteration = func(iter int, at float64) {
		if iter > 0 {
			ctrl.ObserveIteration(iter-1, at-prev)
		}
		prev = at
		if s := ctrl.ConfigFor(iter); s != cur {
			cur = s
			w.setParams(s.Partition, s.Credit)
		}
	}
	se := sim.New()
	if w, err = build(se, nil, cfg, engCfg); err != nil {
		return OnlineResult{}, err
	}
	w.eng.Start()
	se.Run()

	res := OnlineResult{
		Report:         ctrl.Report(),
		SamplesPerIter: float64(cfg.Model.BatchPerGPU) * float64(cfg.GPUs),
	}
	decisions := res.Report.Decisions
	steady := 0
	for i := len(decisions) - 1; i >= 0 && decisions[i].Action == "steady"; i-- {
		res.FinalSpeed += decisions[i].Speed
		steady++
	}
	if steady == 0 {
		return OnlineResult{}, fmt.Errorf("runner: online tuning did not settle in %d iterations (%d decisions)", cfg.Iterations, len(decisions))
	}
	res.FirstSpeed = decisions[0].Speed * res.SamplesPerIter
	res.FinalSpeed *= res.SamplesPerIter / float64(steady)
	part := cfg.Policy.PartitionUnit
	for _, d := range decisions {
		if d.Setting.Partition != part {
			part = d.Setting.Partition
			res.Restarts++
		}
	}
	if cfg.Arch == PS {
		res.TuningOverhead = float64(res.Restarts) * oc.RestartPenalty
	}
	return res, nil
}
