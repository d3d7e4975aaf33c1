package autotune

import (
	"math"
	"sync"
	"testing"

	"bytescheduler/internal/metrics"
	"bytescheduler/internal/tune"
)

// objective maps a setting to training speed (iterations/sec) — a
// synthetic fabric the state-machine tests drive the controller against,
// no sockets involved.
type objective func(Setting) float64

// peaked returns a smooth unimodal objective with its optimum at
// (2^pLog2, 2^cLog2) bytes and the given peak speed: each factor-of-two
// distance from the optimum on either axis costs ~15% of the peak.
func peaked(pLog2, cLog2, peak float64) objective {
	return func(s Setting) float64 {
		d := math.Abs(math.Log2(float64(s.Partition))-pLog2) +
			math.Abs(math.Log2(float64(s.Credit))-cLog2)
		return peak / (1 + 0.15*d)
	}
}

// drive simulates the worker loop for n iterations starting at iteration
// from: pin the config, report its duration under f.
func drive(c *Controller, f objective, from, n int) {
	for it := from; it < from+n; it++ {
		s := c.ConfigFor(it)
		c.ObserveIteration(it, 1/f(s))
	}
}

// optimum returns f's best speed over the standard search box by dense
// grid evaluation.
func optimum(f objective) float64 {
	b := tune.ParamBounds()
	best := 0.0
	for p := b.Lo[0]; p <= b.Hi[0]; p += 0.25 {
		for c := b.Lo[1]; c <= b.Hi[1]; c += 0.25 {
			if v := f(settingFromVector([]float64{p, c})); v > best {
				best = v
			}
		}
	}
	return best
}

func start() Setting { return Setting{Partition: 4 << 20, Credit: 16 << 20} }

func TestControllerConvergesNearOptimum(t *testing.T) {
	f := peaked(20, 22, 100) // optimum at 1MB / 4MB, far from start
	c, err := New(start(), Config{Suggester: "bo", Seed: 3, warmup: 1, DwellIters: 2, Trials: 10})
	if err != nil {
		t.Fatal(err)
	}
	drive(c, f, 0, 120)
	rep := c.Report()
	if !rep.Settled {
		t.Fatalf("controller never settled: %+v", rep)
	}
	opt := optimum(f)
	if rep.BestSpeed < 0.75*opt {
		t.Errorf("best speed %.1f < 75%% of optimum %.1f", rep.BestSpeed, opt)
	}
	if rep.Final != rep.Best {
		t.Errorf("settled final config %v != best %v", rep.Final, rep.Best)
	}
	if rep.Probes != 10 {
		t.Errorf("probes = %d, want 10", rep.Probes)
	}
}

// TestSingleNoisyWindowDoesNotRetune pins the retune confirmation
// requirement: one settled window past retunePct is flagged ("regressing")
// but held out of the baseline; only a second consecutive bad window
// starts a new episode. Live loopback runs dip this deep from scheduler
// noise alone, and a spurious episode costs Trials probe windows.
func TestSingleNoisyWindowDoesNotRetune(t *testing.T) {
	flat := func(Setting) float64 { return 50 }
	slow := func(Setting) float64 { return 10 }
	c, err := New(start(), Config{Suggester: "bo", Seed: 9, warmup: 1, DwellIters: 2, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	drive(c, flat, 0, 80)
	if rep := c.Report(); !rep.Settled {
		t.Fatalf("controller never settled before the noise: %+v", rep)
	}
	hasAction := func(rep Report, a string) bool {
		for _, d := range rep.Decisions {
			if d.Action == a {
				return true
			}
		}
		return false
	}
	// One window's worth of deep dip, then recovery.
	it := 80
	for ; it < 120; it++ {
		s := c.ConfigFor(it)
		c.ObserveIteration(it, 1/slow(s))
		if hasAction(c.Report(), "regressing") {
			it++
			break
		}
	}
	drive(c, flat, it, 40)
	rep := c.Report()
	if !hasAction(rep, "regressing") {
		t.Fatal("controller never flagged the bad window")
	}
	if rep.Retunes != 0 {
		t.Errorf("retunes = %d, want 0: a single noisy window must not start an episode", rep.Retunes)
	}
	if !rep.Settled {
		t.Errorf("controller left the settled state over one noisy window: %+v", rep)
	}
}

// TestLatencyRegressionTriggersRetune pins the secondary objective
// signal: training speed stays perfectly flat while the transport op
// latency histograms inflate 10x — a fabric degrading behind compute
// overlap. The controller must flag the settled windows as regressing on
// latency alone and start a retune episode after the standard two-window
// confirmation.
func TestLatencyRegressionTriggersRetune(t *testing.T) {
	reg := metrics.NewRegistry()
	push := reg.Histogram("netps_push_seconds")
	feed := func(sec float64) {
		for i := 0; i < 4; i++ {
			push.Observe(sec)
		}
	}
	flat := func(Setting) float64 { return 50 }
	c, err := New(start(), Config{
		Suggester: "bo", Seed: 7, warmup: 1, DwellIters: 2,
		Trials: 4, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.latencyPct = 0.5
	// Settle with healthy 1ms ops so the latency EWMA gets seeded.
	it := 0
	for ; it < 80; it++ {
		feed(1e-3)
		s := c.ConfigFor(it)
		c.ObserveIteration(it, 1/flat(s))
	}
	if rep := c.Report(); !rep.Settled || rep.Retunes != 0 {
		t.Fatalf("healthy run should settle without retunes: %+v", rep)
	}
	// Inflate op latency only; speed is unchanged by construction.
	for ; it < 160 && c.Report().Retunes == 0; it++ {
		feed(10e-3)
		s := c.ConfigFor(it)
		c.ObserveIteration(it, 1/flat(s))
	}
	rep := c.Report()
	if rep.Retunes != 1 {
		t.Fatalf("latency-only regression never started an episode: %+v", rep)
	}
	// The confirmation discipline must hold for the latency bar too: a
	// "regressing" flag precedes the "retune", and the windows that fired
	// it saw flat speed but inflated ops.
	var flagged bool
	for _, d := range rep.Decisions {
		if d.Action == "retune" {
			if !flagged {
				t.Fatal("retune fired without a prior regressing window")
			}
			if d.Speed < 49 {
				t.Fatalf("retune window speed %.1f: the regression should be latency-only", d.Speed)
			}
		}
		if d.Action == "regressing" {
			flagged = true
			if d.OpSeconds < 5e-3 {
				t.Fatalf("regressing window op latency %.4fs, want the inflated ops", d.OpSeconds)
			}
		}
	}
}

// TestRollbackStateMachine drives the guarded-rollback and retune logic
// through scripted fabric scenarios.
func TestRollbackStateMachine(t *testing.T) {
	// hostile: the starting config is the only fast point; every probe
	// regresses far past rollbackPct.
	hostile := func(s Setting) float64 {
		if s == start() {
			return 100
		}
		return 10
	}
	flat := func(Setting) float64 { return 50 }
	cases := []struct {
		name          string
		phases        []objective // fabric per segment of iters
		segment       int         // iterations per phase
		wantRollbacks int
		wantRetunes   int
		wantSettled   bool
		wantBest      *Setting // optional exact incumbent
	}{
		{
			name:          "hostile probes trigger exactly one guarded rollback",
			phases:        []objective{hostile},
			segment:       120,
			wantRollbacks: 1, // at most once per episode, by design
			wantRetunes:   0,
			wantSettled:   true,
			wantBest:      &Setting{Partition: 4 << 20, Credit: 16 << 20},
		},
		{
			name:          "flat fabric: no rollback, no retune",
			phases:        []objective{flat},
			segment:       120,
			wantRollbacks: 0,
			wantRetunes:   0,
			wantSettled:   true,
		},
		{
			name: "bandwidth drop after settling triggers a retune episode",
			phases: []objective{
				peaked(20, 22, 100),
				// everything 4x slower, optimum shifted two octaves up
				peaked(24, 26, 25),
			},
			segment:       150,
			wantRollbacks: 0, // reset incumbent bounds regressions; guard may stay quiet
			wantRetunes:   1,
			wantSettled:   true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			c, err := New(start(), Config{
				Suggester: "bo", Seed: 11, warmup: 1, DwellIters: 2,
				Trials: 6, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range tc.phases {
				drive(c, f, i*tc.segment, tc.segment)
			}
			rep := c.Report()
			if rep.Rollbacks > tc.wantRollbacks {
				t.Errorf("rollbacks = %d, want <= %d", rep.Rollbacks, tc.wantRollbacks)
			}
			if rep.Retunes != tc.wantRetunes {
				t.Errorf("retunes = %d, want %d", rep.Retunes, tc.wantRetunes)
			}
			if rep.Settled != tc.wantSettled {
				t.Errorf("settled = %v, want %v", rep.Settled, tc.wantSettled)
			}
			if tc.wantBest != nil && rep.Best != *tc.wantBest {
				t.Errorf("best = %v, want %v", rep.Best, *tc.wantBest)
			}
			if rep.Rollbacks > rep.Episodes {
				t.Errorf("rollbacks %d exceed episodes %d: guard must fire at most once per episode", rep.Rollbacks, rep.Episodes)
			}
			if got := reg.Counter("autotune_retunes_total").Value(); int(got) != rep.Retunes {
				t.Errorf("autotune_retunes_total = %d, report says %d", got, rep.Retunes)
			}
			if got := reg.Counter("autotune_rollbacks_total").Value(); int(got) != rep.Rollbacks {
				t.Errorf("autotune_rollbacks_total = %d, report says %d", got, rep.Rollbacks)
			}
		})
	}
}

// TestHostileRollbackExact pins the full trajectory of the hostile case:
// the rollback must land back on the incumbent and re-validate it.
func TestHostileRollbackExact(t *testing.T) {
	hostile := func(s Setting) float64 {
		if s == start() {
			return 100
		}
		return 10
	}
	c, err := New(start(), Config{Suggester: "random", Seed: 5, warmup: 1, DwellIters: 2, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	drive(c, hostile, 0, 100)
	rep := c.Report()
	if rep.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want exactly 1 (first bad probe fires the guard, later ones don't)", rep.Rollbacks)
	}
	var sawRevalidate bool
	for i, d := range rep.Decisions {
		if d.Action == "rollback" && i+1 < len(rep.Decisions) {
			next := rep.Decisions[i+1]
			if next.Action != "revalidate" || next.Setting != start() {
				t.Errorf("decision after rollback = %s %v, want revalidate at %v", next.Action, next.Setting, start())
			}
			sawRevalidate = next.Action == "revalidate"
		}
	}
	if !sawRevalidate {
		t.Error("no revalidate decision followed the rollback")
	}
	if rep.Best != start() || rep.Final != start() {
		t.Errorf("best %v / final %v, want the incumbent %v", rep.Best, rep.Final, start())
	}
}

// TestConfigForPinsAcrossWorkers checks the cross-worker consistency
// contract: whatever the controller does between calls, every worker
// asking for the same iteration gets the same config.
func TestConfigForPinsAcrossWorkers(t *testing.T) {
	c, err := New(start(), Config{warmup: 1, DwellIters: 2, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := c.ConfigFor(7)
	// Force target churn: judge windows until the target moves.
	drive(c, func(Setting) float64 { return 42 }, 0, 20)
	if got := c.ConfigFor(7); got != first {
		t.Fatalf("iteration 7 re-pinned to %v, first worker saw %v", got, first)
	}
	// Concurrent pinning of a fresh iteration must agree.
	var wg sync.WaitGroup
	got := make([]Setting, 8)
	for w := range got {
		w := w
		wg.Add(1)
		go func() { defer wg.Done(); got[w] = c.ConfigFor(30) }()
	}
	wg.Wait()
	for w := 1; w < len(got); w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d pinned %v, worker 0 pinned %v", w, got[w], got[0])
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(start(), Config{Suggester: "annealing"}); err == nil {
		t.Error("unknown suggester accepted")
	}
	if _, err := New(Setting{Partition: 6, Credit: 1 << 20}, Config{}); err == nil {
		t.Error("unaligned partition accepted")
	}
	if _, err := New(Setting{}, Config{}); err == nil {
		t.Error("zero setting accepted")
	}
}

func TestSettingFromVectorAligns(t *testing.T) {
	s := settingFromVector([]float64{16.3, 18.7})
	if s.Partition%4 != 0 || s.Partition <= 0 {
		t.Errorf("partition %d not a positive multiple of 4", s.Partition)
	}
	if s.Credit <= 0 {
		t.Errorf("credit %d not positive", s.Credit)
	}
}
