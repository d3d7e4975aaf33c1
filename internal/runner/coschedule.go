package runner

import (
	"fmt"

	"bytescheduler/internal/network"
	"bytescheduler/internal/sim"
)

// RunCoScheduled runs several PS training jobs over one shared fabric — the
// paper's §7 "co-scheduling in a shared cluster" scenario: jobs contend for
// worker NICs and PS NICs, each job scheduling its own traffic obliviously
// to the others. All jobs must agree on machine count, bandwidth, transport
// and use the PS architecture; they may train different models under
// different policies.
//
// Results are per job, in input order. Each job runs its configured number
// of iterations; jobs that finish early leave the fabric to the rest, so
// compare per-job speeds with equal iteration budgets for a fair reading.
func RunCoScheduled(cfgs []Config) ([]Result, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("runner: no jobs")
	}
	for i := range cfgs {
		cfgs[i] = cfgs[i].withDefaults()
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("runner: job %d: %w", i, err)
		}
		if cfgs[i].Arch != PS {
			return nil, fmt.Errorf("runner: job %d: co-scheduling supports the PS architecture", i)
		}
		if cfgs[i].Faults != nil {
			return nil, fmt.Errorf("runner: job %d: fault injection configures the fabric, which co-scheduled jobs share; it is single-job only", i)
		}
		if cfgs[i].Machines() != cfgs[0].Machines() ||
			cfgs[i].BandwidthGbps != cfgs[0].BandwidthGbps ||
			cfgs[i].Transport.Name != cfgs[0].Transport.Name {
			return nil, fmt.Errorf("runner: job %d: cluster shape must match job 0", i)
		}
	}

	se := sim.New()
	fab := network.NewFabric(se, 2*cfgs[0].Machines(), cfgs[0].BandwidthGbps, cfgs[0].Transport)
	// Jobs on the same hosts contend for the NIC, not the GPUs: each job
	// keeps its own engine (its own GPUs) on the one fabric.
	jobs := make([]*world, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if jobs[i], err = build(se, fab, cfg, engineConfig(cfg)); err != nil {
			return nil, fmt.Errorf("runner: job %d: %w", i, err)
		}
	}
	for _, j := range jobs {
		j.eng.Start()
	}
	se.Run()

	results := make([]Result, len(jobs))
	for i, j := range jobs {
		results[i] = summarize(cfgs[i], j.eng.Result())
		if err := j.collect(&results[i]); err != nil {
			return nil, fmt.Errorf("runner: job %d: %w", i, err)
		}
	}
	return results, nil
}
