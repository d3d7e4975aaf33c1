// Package stats provides the small statistical helpers the benchmark
// harness and auto-tuner need: moments, percentiles, and a deterministic
// RNG wrapper.
package stats

import (
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
