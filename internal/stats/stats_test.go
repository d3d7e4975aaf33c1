package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMoments(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := StdDev(xs); math.Abs(got-2.138) > 0.01 {
		t.Fatalf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("degenerate cases")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("P50 = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("P100 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("P25 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must reproduce")
		}
	}
	if NewRNG(1).Float64() == NewRNG(2).Float64() {
		t.Fatal("different seeds should differ")
	}
}

func TestJitterBounds(t *testing.T) {
	g := NewRNG(3)
	if g.Jitter(0) != 1 || g.Jitter(-1) != 1 {
		t.Fatal("non-positive jitter must be identity")
	}
	f := func(seed int64) bool {
		g := NewRNG(seed)
		for i := 0; i < 50; i++ {
			j := g.Jitter(0.2)
			if j < 0.8 || j > 1.2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileProperty(t *testing.T) {
	f := func(raw []uint16, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		a := float64(p1) / 2.55 // 0..100
		b := float64(p2) / 2.55
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(xs, a), Percentile(xs, b)
		return pa <= pb+1e-9 && pa >= slices.Min(xs)-1e-9 && pb <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
