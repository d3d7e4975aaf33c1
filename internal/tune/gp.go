package tune

import (
	"math"

	"bytescheduler/internal/tune/linalg"
)

// GP is a Gaussian-process regressor with an RBF (squared-exponential)
// kernel over inputs normalized to [0,1]^d, used as the Bayesian
// Optimization surrogate. The paper: "we use Gaussian as it is widely
// accepted as a good surrogate model for BO".
//
// Outputs are standardized internally (zero mean, unit variance), so the
// kernel amplitude is 1 and only the length scale and noise level are
// exposed.
type GP struct {
	// LengthScale is the RBF kernel length scale in normalized input
	// space.
	LengthScale float64
	// Noise is the observation noise standard deviation relative to the
	// (standardized) output scale — BO's robustness to runtime jitter
	// comes from modeling it.
	Noise float64

	xs   [][]float64
	ys   []float64
	mean float64
	std  float64
	lmat [][]float64 // Cholesky factor of K + σ²I
	kinv []float64   // K⁻¹ (y-mean)/std via Cholesky solve
}

// NewGP returns a GP with sensible defaults for 2-D tuning problems.
func NewGP() *GP {
	return &GP{LengthScale: 0.25, Noise: 0.05}
}

func (g *GP) kernel(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-d2 / (2 * g.LengthScale * g.LengthScale))
}

// Fit conditions the GP on normalized inputs xs and raw outputs ys.
func (g *GP) Fit(xs [][]float64, ys []float64) error {
	n := len(xs)
	g.xs = xs
	g.ys = ys
	g.mean = 0
	for _, y := range ys {
		g.mean += y
	}
	g.mean /= float64(n)
	var ss float64
	for _, y := range ys {
		d := y - g.mean
		ss += d * d
	}
	g.std = math.Sqrt(ss / float64(n))
	if g.std < 1e-12 {
		g.std = 1 // constant observations: degenerate but well-defined
	}
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := g.kernel(xs[i], xs[j])
			k[i][j] = v
			k[j][i] = v
		}
		k[i][i] += g.Noise*g.Noise + 1e-9
	}
	l, err := linalg.Cholesky(k)
	if err != nil {
		return err
	}
	g.lmat = l
	resid := make([]float64, n)
	for i, y := range ys {
		resid[i] = (y - g.mean) / g.std
	}
	g.kinv = linalg.CholSolve(l, resid)
	return nil
}

// Predict returns the posterior mean and standard deviation at a normalized
// input.
func (g *GP) Predict(x []float64) (mu, sigma float64) {
	if len(g.xs) == 0 {
		return 0, 1
	}
	ks := make([]float64, len(g.xs))
	for i, xi := range g.xs {
		ks[i] = g.kernel(x, xi)
	}
	muStd := linalg.Dot(ks, g.kinv)
	v := linalg.SolveLower(g.lmat, ks)
	variance := 1 + g.Noise*g.Noise - linalg.Dot(v, v)
	if variance < 1e-12 {
		variance = 1e-12
	}
	return g.mean + g.std*muStd, g.std * math.Sqrt(variance)
}

// normPDF is the standard normal density.
func normPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// normCDF is the standard normal distribution function.
func normCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// ExpectedImprovement returns EI(x) for maximization against the incumbent
// best, with exploration parameter xi expressed relative to the output
// standard deviation (the paper uses the common default 0.1).
func (g *GP) ExpectedImprovement(x []float64, bestY, xi float64) float64 {
	mu, sigma := g.Predict(x)
	improve := mu - bestY - xi*g.std
	if sigma < 1e-12 {
		if improve > 0 {
			return improve
		}
		return 0
	}
	z := improve / sigma
	return improve*normCDF(z) + sigma*normPDF(z)
}
