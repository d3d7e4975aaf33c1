package autotune

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bytescheduler/internal/metrics"
)

// TestSettleBoundProperty drives the controller alone through seeded
// interleavings of ConfigFor and ObserveIteration, as the live runner's
// workers make them, and checks two properties on every run:
//
//   - the first episode's adopt decision closes before iteration
//     BudgetIters(0, skew), where skew (0 or 1) is how far other workers
//     pin ahead of the timing worker's observations;
//   - every judged window measured exactly DwellIters clean iterations of
//     its setting — the last ones before the decision — behind exactly one
//     discarded transition iteration (none for the baseline window), so its
//     speed is DwellIters over their summed durations, bit for bit.
//
// Iteration times come from an objective over (partition, credit) under
// bounded noise, slow bursts, monotone drift and a transition penalty on
// the first iteration after a config change; the transport op latency the
// controller reads doubles in bursts of its own. A controller that lets
// more than one rollback into an episode breaks the first property; one
// that counts the transition iteration as clean breaks the second.
func TestSettleBoundProperty(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		if err := settleTrial(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// settleTrial runs one seeded interleaving and returns the first property
// violation.
func settleTrial(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	reg := metrics.NewRegistry()
	cfg := Config{
		Suggester:  []string{"bo", "random", "grid"}[rng.Intn(3)],
		Seed:       seed,
		warmup:     1 + rng.Intn(2),
		DwellIters: 2 + rng.Intn(2),
		Trials:     2 + rng.Intn(5),
		Metrics:    reg,
	}
	c, err := New(start(), cfg)
	if err != nil {
		return err
	}
	// Pin skew: never, always, or on a coin flip per iteration.
	skewMode := rng.Intn(3)
	skew := 0
	if skewMode > 0 {
		skew = 1
	}
	speed := []objective{
		peaked(18+6*rng.Float64(), 20+6*rng.Float64(), 100),
		func(Setting) float64 { return 50 },
		func(s Setting) float64 { // only the starting config is fast
			if s == start() {
				return 100
			}
			return 20
		},
	}[rng.Intn(3)]
	noise := 0.15 * rng.Float64()
	burstP := 0.1 * rng.Float64()
	drift := 0.01 * rng.Float64()
	push := reg.Histogram("netps_push_seconds")

	budget := cfg.BudgetIters(0, skew)
	n := cfg.BudgetIters(2, skew) + 1
	pinned := make([]Setting, n)
	dur := make([]float64, n)
	burst, opBurst := 0, 0
	seen := 0 // decisions already checked
	for it := 0; it < n; it++ {
		// Another worker may pin this iteration before the timing worker
		// observes the previous one.
		if skewMode == 1 || skewMode == 2 && rng.Intn(2) == 0 {
			c.ConfigFor(it)
		}
		if it > 0 {
			c.ObserveIteration(it-1, dur[it-1])
			rep := c.Report()
			for ; seen < len(rep.Decisions); seen++ {
				if err := checkWindow(cfg, rep.Decisions, seen, pinned, dur); err != nil {
					return err
				}
			}
		}
		pinned[it] = c.ConfigFor(it)

		// This iteration's duration.
		d := 1 / speed(pinned[it]) * (1 + noise*(2*rng.Float64()-1)) * (1 + drift*float64(it))
		if it > 0 && pinned[it] != pinned[it-1] {
			d *= 1.5 // the previous config's tail overlaps this pass
		}
		if burst == 0 && rng.Float64() < burstP {
			burst = 1 + rng.Intn(2*cfg.DwellIters)
		}
		if burst > 0 {
			burst--
			d *= 3
		}
		dur[it] = d
		if opBurst == 0 && rng.Float64() < 0.1 {
			opBurst = 1 + rng.Intn(3*cfg.DwellIters)
		}
		op := 1e-3
		if opBurst > 0 {
			opBurst--
			op *= 2.5
		}
		push.Observe(op)
	}

	shape := fmt.Sprintf("%s warmup %d dwell %d trials %d skew %d", cfg.Suggester, cfg.warmup, cfg.DwellIters, cfg.Trials, skew)
	for _, d := range c.Report().Decisions {
		if d.Action != "adopt" {
			continue
		}
		if d.Iter >= budget {
			return fmt.Errorf("%s: first adopt at iteration %d, budget %d", shape, d.Iter, budget)
		}
		return nil
	}
	return fmt.Errorf("%s: no adopt in %d iterations (budget %d)", shape, n, budget)
}

// checkWindow checks decision k's window: the iterations observed since the
// previous decision that were pinned to its setting, at or past warmup,
// are the transition iteration — when the previous decision switched the
// config, which every decision but steady and regressing does — and then
// exactly DwellIters clean ones, the last of which closed the window. An
// adopt decision reports the incumbent's speed rather than a window of its
// own.
func checkWindow(cfg Config, ds []Decision, k int, pinned []Setting, dur []float64) error {
	d := ds[k]
	if d.Action == "adopt" {
		return nil
	}
	from, want := cfg.warmup, cfg.DwellIters
	if k > 0 {
		from = ds[k-1].Iter + 1
		if a := ds[k-1].Action; a != "steady" && a != "regressing" {
			want++ // the previous decision switched the config
		}
	}
	var its []int
	for i := from; i <= d.Iter; i++ {
		if pinned[i] == d.Setting {
			its = append(its, i)
		}
	}
	if len(its) != want || its[len(its)-1] != d.Iter {
		return fmt.Errorf("decision %d (%s at %d, %v) judged over iterations %v of its setting since %d, want %d ending at it",
			k, d.Action, d.Iter, d.Setting, its, from, want)
	}
	var sum float64
	for _, i := range its[len(its)-cfg.DwellIters:] {
		sum += dur[i]
	}
	if got := float64(cfg.DwellIters) / sum; got != d.Speed || math.IsNaN(got) {
		return fmt.Errorf("decision %d (%s at %d) speed %v, want %v from iterations %v",
			k, d.Action, d.Iter, d.Speed, got, its[len(its)-cfg.DwellIters:])
	}
	return nil
}
