package cluster

import (
	"reflect"
	"testing"
)

// testScenario is small enough to run in milliseconds but keeps the
// shape that matters: many heterogeneous jobs contending for slots and
// links with a real delay spread.
func testScenario(fair bool) Scenario {
	return Scenario{
		Jobs:             120,
		Nodes:            8,
		SlotsPerNode:     4,
		LinkGbps:         25,
		MaxDelayMs:       2,
		CreditPool:       256,
		ArrivalWindowSec: 30,
		Fair:             fair,
		Seed:             7,
	}
}

func TestScenarioValidate(t *testing.T) {
	bad := []Scenario{
		{Jobs: -1},
		{LinkGbps: -1},
		{MaxDelayMs: -1},
		{CreditPool: -1},
		{ArrivalWindowSec: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid scenario accepted: %+v", i, s)
		}
	}
	// The zero scenario is valid — defaults fill it.
	if err := (Scenario{}).Validate(); err != nil {
		t.Fatalf("default scenario rejected: %v", err)
	}
}

// TestGenerateJobsHeterogeneous pins the workload shape the experiment
// claims: a genuine model-zoo mix (several distinct architectures), the
// full spread of worker counts and weights, and a tensor population in
// the millions at default scale.
func TestGenerateJobsHeterogeneous(t *testing.T) {
	s := Scenario{Seed: 3}.withDefaults()
	jobs := s.generateJobs()
	if len(jobs) != s.Jobs {
		t.Fatalf("generated %d jobs, want %d", len(jobs), s.Jobs)
	}
	models := map[string]bool{}
	workers := map[int]bool{}
	weights := map[float64]bool{}
	var tensors int64
	for _, j := range jobs {
		if err := j.validate(); err != nil {
			t.Fatalf("generated job invalid: %v", err)
		}
		models[j.Model] = true
		workers[j.Workers] = true
		weights[j.Weight] = true
		tensors += j.TotalTensors()
	}
	if len(models) < 8 {
		t.Errorf("only %d distinct models in the mix, want a zoo (>=8)", len(models))
	}
	for _, w := range []int{1, 2, 4} {
		if !workers[w] {
			t.Errorf("no job with %d workers in the mix", w)
		}
	}
	for _, w := range []float64{1, 2, 4} {
		if !weights[w] {
			t.Errorf("no job with weight %v in the mix", w)
		}
	}
	if tensors < 1_000_000 {
		t.Errorf("default scenario generates %d tensor transfers, want millions", tensors)
	}
}

// TestSimDeterministic pins bitwise reproducibility: the same scenario
// run twice produces identical reports, and a different seed produces a
// different job population (so the first check is not vacuous).
func TestSimDeterministic(t *testing.T) {
	for _, fair := range []bool{false, true} {
		s := testScenario(fair)
		a, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("fair=%v: same scenario produced different reports:\n%+v\n%+v", fair, a, b)
		}
	}
	s2 := testScenario(true)
	s2.Seed++
	j1 := testScenario(true).generateJobs()
	j2 := s2.generateJobs()
	if reflect.DeepEqual(j1, j2) {
		t.Fatal("different seeds generated identical job populations")
	}
}

// TestSimFairBeatsFIFO is the scheme's shape check at package level: on
// the same job population, backfill admission + delay-aware placement +
// weighted fair sharing + contention-aware credits must beat the
// FIFO/uniform baseline on tail JCT.
func TestSimFairBeatsFIFO(t *testing.T) {
	base, err := testScenario(false).Run()
	if err != nil {
		t.Fatal(err)
	}
	fair, err := testScenario(true).Run()
	if err != nil {
		t.Fatal(err)
	}
	if base.Jobs != 120 || fair.Jobs != 120 {
		t.Fatalf("job counts: base %d fair %d", base.Jobs, fair.Jobs)
	}
	if fair.JCTP95Sec >= base.JCTP95Sec {
		t.Fatalf("fair p95 JCT %.3fs not better than baseline %.3fs", fair.JCTP95Sec, base.JCTP95Sec)
	}
	if fair.JCTMeanSec >= base.JCTMeanSec {
		t.Fatalf("fair mean JCT %.3fs not better than baseline %.3fs", fair.JCTMeanSec, base.JCTMeanSec)
	}
	// Sanity on the report's accounting.
	for _, r := range []Report{base, fair} {
		if r.MakespanSec <= 0 || r.TotalTensors <= 0 || r.TotalBytes <= 0 {
			t.Fatalf("degenerate report: %+v", r)
		}
		if r.UtilizationPct <= 0 || r.UtilizationPct > 100+1e-9 {
			t.Fatalf("utilization %v%% out of range", r.UtilizationPct)
		}
		if len(r.PerJob) != r.Jobs {
			t.Fatalf("per-job stats %d, want %d", len(r.PerJob), r.Jobs)
		}
		for _, js := range r.PerJob {
			if js.AdmitSec < js.ArrivalSec || js.DoneSec < js.AdmitSec {
				t.Fatalf("job %d lifecycle out of order: %+v", js.ID, js)
			}
		}
	}
}
