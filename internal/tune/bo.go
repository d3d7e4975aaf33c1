package tune

import (
	"fmt"
	"math"

	"bytescheduler/internal/stats"
)

// BO is the paper's Bayesian Optimization tuner: a GP surrogate with
// Expected Improvement acquisition, quasi-random initialization, and
// candidate-set acquisition maximization.
type BO struct {
	bounds     Bounds
	gp         *GP
	rng        *stats.RNG
	initPoints int
	candidates int // acquisition candidate-set size (256; tests shrink it)

	xs   [][]float64 // normalized
	ys   []float64
	inc  best
	lies int // trailing constant-liar entries in xs/ys (see NextBatch)
	// perms holds one stratum permutation per dimension for the
	// Latin-hypercube warmup.
	perms [][]int
}

// boXI is the EI exploration parameter (the paper's default).
const boXI = 0.1

// BOOption customizes the tuner.
type BOOption func(*BO)

// WithInitPoints sets the number of quasi-random warmup evaluations.
func WithInitPoints(n int) BOOption { return func(b *BO) { b.initPoints = n } }

// NewBO constructs the tuner. It panics on invalid bounds, surfacing
// configuration bugs at construction.
func NewBO(bounds Bounds, seed int64, opts ...BOOption) *BO {
	if err := bounds.Validate(); err != nil {
		panic(err)
	}
	b := &BO{
		bounds:     bounds,
		gp:         NewGP(),
		rng:        stats.NewRNG(seed),
		initPoints: 3,
		candidates: 256,
		inc:        newBest(),
	}
	for _, opt := range opts {
		opt(b)
	}
	// Latin-hypercube warmup: one random permutation of strata per
	// dimension, so the initial design covers the box without favoring
	// any region (in particular, not the center).
	b.perms = make([][]int, bounds.Dims())
	for d := range b.perms {
		perm := make([]int, b.initPoints)
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := b.rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		b.perms[d] = perm
	}
	return b
}

// Name implements Tuner.
func (b *BO) Name() string { return "bo" }

// Best implements Tuner.
func (b *BO) Best() Sample { return b.inc.sample }

// Next implements Tuner: warmup points first, then the EI maximizer over a
// random candidate set.
func (b *BO) Next() []float64 {
	var u []float64
	switch {
	case len(b.xs) < b.initPoints:
		// Stratified warmup: center first, then jittered diagonal
		// points, covering the box without a full grid.
		u = b.warmupPoint(len(b.xs))
	default:
		u = b.acquire()
	}
	return b.bounds.denormalize(u)
}

func (b *BO) warmupPoint(i int) []float64 {
	d := b.bounds.Dims()
	u := make([]float64, d)
	n := float64(b.initPoints)
	for j := range u {
		u[j] = (float64(b.perms[j][i]) + b.rng.Float64()) / n
	}
	return u
}

func (b *BO) acquire() []float64 {
	if err := b.gp.Fit(b.xs, b.ys); err != nil {
		// Numerically degenerate (e.g. duplicated points): fall back to
		// exploration.
		return b.randomPoint()
	}
	bestY := b.inc.sample.Y
	var bestU []float64
	bestEI := math.Inf(-1)
	for i := 0; i < b.candidates; i++ {
		u := b.randomPoint()
		ei := b.gp.ExpectedImprovement(u, bestY, boXI)
		if ei > bestEI {
			bestEI = ei
			bestU = u
		}
	}
	return bestU
}

func (b *BO) randomPoint() []float64 {
	u := make([]float64, b.bounds.Dims())
	for i := range u {
		u[i] = b.rng.Float64()
	}
	return u
}

// Observe implements Tuner.
func (b *BO) Observe(x []float64, y float64) {
	if len(x) != b.bounds.Dims() {
		panic(fmt.Sprintf("tune: observation dims %d, want %d", len(x), b.bounds.Dims()))
	}
	u := b.bounds.normalize(x)
	b.xs = append(b.xs, u)
	b.ys = append(b.ys, y)
	b.inc.observe(x, y)
}

// NextBatch implements BatchTuner with the constant-liar heuristic: each
// of the k proposals is chosen by the usual warmup/EI rule, then recorded
// against a "lie" — the incumbent best objective (0 before any real
// observation) — so the surrogate treats the point as already evaluated
// and the remaining proposals in the batch spread out instead of piling
// onto the same EI maximum. ObserveBatch retracts the lies before
// recording the true values, so the GP is only ever fit to real data plus
// the current batch's in-flight lies.
func (b *BO) NextBatch(k int) [][]float64 {
	if k < 1 {
		k = 1
	}
	lie := b.inc.sample.Y
	if math.IsInf(lie, -1) {
		lie = 0
	}
	out := make([][]float64, k)
	for i := range out {
		var u []float64
		if len(b.xs) < b.initPoints {
			u = b.warmupPoint(len(b.xs))
		} else {
			u = b.acquire()
		}
		out[i] = b.bounds.denormalize(u)
		b.xs = append(b.xs, u)
		b.ys = append(b.ys, lie)
		b.lies++
	}
	return out
}

// ObserveBatch implements BatchTuner: it drops the constant-liar entries
// appended by the preceding NextBatch, then records the true observations
// in proposal order.
func (b *BO) ObserveBatch(xs [][]float64, ys []float64) {
	if b.lies > 0 {
		b.xs = b.xs[:len(b.xs)-b.lies]
		b.ys = b.ys[:len(b.ys)-b.lies]
		b.lies = 0
	}
	for i := range xs {
		b.Observe(xs[i], ys[i])
	}
}

// Posterior evaluates the current surrogate at x (original units),
// returning the predictive mean and 95% confidence half-width — the data
// behind Figure 9. It refits the GP on the accumulated samples.
func (b *BO) Posterior(x []float64) (mean, ci95 float64, err error) {
	if len(b.xs) == 0 {
		return 0, 0, fmt.Errorf("tune: no observations yet")
	}
	if err := b.gp.Fit(b.xs, b.ys); err != nil {
		return 0, 0, err
	}
	mu, sigma := b.gp.Predict(b.bounds.normalize(x))
	return mu, 1.96 * sigma, nil
}

func clamp01(v float64) float64 {
	return math.Min(1, math.Max(0, v))
}
