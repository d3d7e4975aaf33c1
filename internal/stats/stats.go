// Package stats provides the small statistical helpers the benchmark
// harness and auto-tuner need: moments, confidence intervals, and a
// deterministic RNG wrapper.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator); 0 for
// fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Min returns the minimum; +Inf for an empty slice.
func Min(xs []float64) float64 {
	out := math.Inf(1)
	for _, x := range xs {
		if x < out {
			out = x
		}
	}
	return out
}

// Max returns the maximum; -Inf for an empty slice.
func Max(xs []float64) float64 {
	out := math.Inf(-1)
	for _, x := range xs {
		if x > out {
			out = x
		}
	}
	return out
}

// Percentile returns the p-th percentile (0..100) by linear interpolation;
// NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// tCrit95 holds two-sided 95% Student-t critical values for 1..29 degrees
// of freedom. Benchmark repetitions are small (often 3-10 runs), where the
// normal approximation's z=1.96 understates the interval badly — at n=4
// (df=3) the true critical value is 3.182, a 62% wider interval.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
}

// CI95 returns the half-width of a two-sided 95% confidence interval around
// the mean, using Student-t critical values for small samples (n < 30) and
// the normal approximation z=1.96 beyond, where the two agree to within 2%.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	crit := 1.96
	if df := len(xs) - 1; df <= len(tCrit95) {
		crit = tCrit95[df-1]
	}
	return crit * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Speedup returns (b-a)/a as a percentage: how much faster b is than a.
func Speedup(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}

// RNG is a deterministic random source for simulations.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a seeded generator.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Seed restarts the generator: it then draws exactly what NewRNG(seed)
// would, without allocating a new source.
func (g *RNG) Seed(seed int64) { g.r.Seed(seed) }

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Jitter returns a multiplicative factor uniform in [1-frac, 1+frac].
func (g *RNG) Jitter(frac float64) float64 {
	if frac <= 0 {
		return 1
	}
	return 1 + frac*(2*g.r.Float64()-1)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*g.r.NormFloat64()
}

// FormatBytes renders a byte count in human-friendly binary units.
func FormatBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%dB", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%cB", float64(b)/float64(div), "KMGTPE"[exp])
}
