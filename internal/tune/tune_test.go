package tune

import (
	"math"
	"math/rand"
	"testing"
)

func TestBoundsValidate(t *testing.T) {
	good := Bounds{Lo: []float64{0, 0}, Hi: []float64{1, 2}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Bounds{
		{},
		{Lo: []float64{0}, Hi: []float64{1, 2}},
		{Lo: []float64{1}, Hi: []float64{1}},
		{Lo: []float64{2}, Hi: []float64{1}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad bounds %d accepted", i)
		}
	}
}

func TestBoundsClampNormalize(t *testing.T) {
	b := Bounds{Lo: []float64{0, 10}, Hi: []float64{1, 20}}
	x := []float64{-5, 25}
	b.Clamp(x)
	if x[0] != 0 || x[1] != 20 {
		t.Fatalf("Clamp = %v", x)
	}
	u := b.normalize([]float64{0.5, 15})
	if u[0] != 0.5 || u[1] != 0.5 {
		t.Fatalf("normalize = %v", u)
	}
	back := b.denormalize(u)
	if back[0] != 0.5 || back[1] != 15 {
		t.Fatalf("denormalize = %v", back)
	}
}

// paraboloid peaks at (0.3, 0.7) with max 100.
func paraboloid(x []float64) float64 {
	dx, dy := x[0]-0.3, x[1]-0.7
	return 100 - 200*dx*dx - 200*dy*dy
}

func unitBounds() Bounds {
	return Bounds{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
}

func TestGPInterpolates(t *testing.T) {
	g := NewGP()
	xs := [][]float64{{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.9}, {0.2, 0.8}}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = paraboloid(x)
	}
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mu, sigma := g.Predict(x)
		if math.Abs(mu-ys[i]) > 0.15*g.std+1 {
			t.Errorf("at sample %d: mu=%v want~%v", i, mu, ys[i])
		}
		if sigma < 0 {
			t.Errorf("negative sigma at sample %d", i)
		}
	}
	// Uncertainty must be larger far from data than at data.
	_, sAt := g.Predict(xs[0])
	_, sFar := g.Predict([]float64{0.95, 0.05})
	if sFar <= sAt {
		t.Fatalf("sigma far (%v) not larger than at sample (%v)", sFar, sAt)
	}
}

func TestGPConstantObservations(t *testing.T) {
	g := NewGP()
	xs := [][]float64{{0.2, 0.2}, {0.8, 0.8}}
	if err := g.Fit(xs, []float64{5, 5}); err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{0.5, 0.5})
	if math.Abs(mu-5) > 1 {
		t.Fatalf("constant GP mean = %v, want ~5", mu)
	}
}

func TestExpectedImprovementNonNegative(t *testing.T) {
	g := NewGP()
	xs := [][]float64{{0.1, 0.1}, {0.9, 0.9}}
	if err := g.Fit(xs, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{{0.1, 0.1}, {0.5, 0.5}, {0.99, 0.99}} {
		if ei := g.ExpectedImprovement(x, 2, 0.1); ei < 0 {
			t.Fatalf("EI(%v) = %v < 0", x, ei)
		}
	}
}

func TestBOFindsOptimum(t *testing.T) {
	bo := NewBO(unitBounds(), 7)
	got := Run(bo, paraboloid, 25)
	if got.Y < 97 {
		t.Fatalf("BO best %.2f after 25 trials, want > 97 (max 100)", got.Y)
	}
}

func TestBOWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	noisy := func(x []float64) float64 { return paraboloid(x) + 2*rng.NormFloat64() }
	bo := NewBO(unitBounds(), 7)
	got := Run(bo, noisy, 30)
	if got.Y < 92 {
		t.Fatalf("noisy BO best %.2f, want > 92", got.Y)
	}
}

func TestBOPosterior(t *testing.T) {
	bo := NewBO(unitBounds(), 1)
	if _, _, err := bo.Posterior([]float64{0.5, 0.5}); err == nil {
		t.Fatal("posterior before observations must error")
	}
	Run(bo, paraboloid, 10)
	mu, ci, err := bo.Posterior([]float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if ci <= 0 {
		t.Fatalf("ci = %v", ci)
	}
	if math.Abs(mu-100) > 25 {
		t.Fatalf("posterior at optimum = %v, want ~100", mu)
	}
}

func TestBOObserveDimsPanics(t *testing.T) {
	bo := NewBO(unitBounds(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-dims observation accepted")
		}
	}()
	bo.Observe([]float64{1}, 0)
}

func TestRandomSearchWithinBounds(t *testing.T) {
	b := Bounds{Lo: []float64{-1, 10}, Hi: []float64{1, 20}}
	r := NewRandomSearch(b, 5)
	for i := 0; i < 100; i++ {
		x := r.Next()
		for d := range x {
			if x[d] < b.Lo[d] || x[d] > b.Hi[d] {
				t.Fatalf("out of bounds: %v", x)
			}
		}
		r.Observe(x, paraboloid(x))
	}
	if math.IsInf(r.Best().Y, -1) {
		t.Fatal("no best recorded")
	}
}

func TestGridSearchCoversCorners(t *testing.T) {
	g := NewGridSearch(unitBounds(), 3)
	if g.Points() != 9 {
		t.Fatalf("Points = %d, want 9", g.Points())
	}
	seen := map[[2]float64]bool{}
	for i := 0; i < 9; i++ {
		x := g.Next()
		seen[[2]float64{x[0], x[1]}] = true
		g.Observe(x, paraboloid(x))
	}
	for _, corner := range [][2]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0.5, 0.5}} {
		if !seen[corner] {
			t.Fatalf("grid missed %v; saw %v", corner, seen)
		}
	}
}

func TestSGDMomentumImproves(t *testing.T) {
	s := NewSGDMomentum(unitBounds(), 2)
	first := paraboloid(s.Next())
	s2 := NewSGDMomentum(unitBounds(), 2)
	got := Run(s2, paraboloid, 60)
	if got.Y <= first {
		t.Fatalf("SGD best %.2f did not improve on start %.2f", got.Y, first)
	}
	if got.Y < 80 {
		t.Fatalf("SGD best %.2f after 60 trials, want > 80", got.Y)
	}
}

func TestBOBeatsRandomOnSearchCost(t *testing.T) {
	// Figure 14 shape: averaged over seeds, BO reaches near-optimal in
	// fewer trials than random search.
	target := 97.0
	avgTrials := func(mk func(seed int64) Tuner) float64 {
		var sum float64
		for seed := int64(0); seed < 6; seed++ {
			tr, _ := TrialsToReach(mk(seed), paraboloid, target, 120)
			sum += float64(tr)
		}
		return sum / 6
	}
	bo := avgTrials(func(s int64) Tuner { return NewBO(unitBounds(), s) })
	random := avgTrials(func(s int64) Tuner { return NewRandomSearch(unitBounds(), s) })
	if bo >= random {
		t.Fatalf("BO avg trials %.1f not fewer than random %.1f", bo, random)
	}
}

func TestTrialsToReach(t *testing.T) {
	g := NewGridSearch(unitBounds(), 5)
	n, ok := TrialsToReach(g, paraboloid, 1000, 10)
	if ok || n != 10 {
		t.Fatalf("unreachable target: n=%d ok=%v", n, ok)
	}
	g2 := NewGridSearch(unitBounds(), 5)
	n2, ok2 := TrialsToReach(g2, paraboloid, 50, 25)
	if !ok2 || n2 > 25 {
		t.Fatalf("reachable target: n=%d ok=%v", n2, ok2)
	}
}

func TestParamVectorRoundTrip(t *testing.T) {
	for _, pc := range [][2]int64{{1 << 20, 8 << 20}, {160 << 10, 160 << 10}, {64 << 20, 171 << 20}} {
		x := VectorFromParams(pc[0], pc[1])
		p, c := ParamsFromVector(x)
		if p != pc[0] || c != pc[1] {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", pc[0], pc[1], p, c)
		}
	}
	b := ParamBounds()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Dims() != 2 {
		t.Fatalf("Dims = %d", b.Dims())
	}
}

func TestPartitionCredit(t *testing.T) {
	// A synthetic speed surface peaking at partition 4MB, credit 16MB.
	objective := func(p, c int64) float64 {
		dp := math.Log2(float64(p)) - 22
		dc := math.Log2(float64(c)) - 24
		return 1000 - 20*dp*dp - 20*dc*dc
	}
	res := PartitionCredit(NewBO(ParamBounds(), 4), objective, 25)
	if res.Trials != 25 {
		t.Fatalf("Trials = %d", res.Trials)
	}
	if res.Speed < 960 {
		t.Fatalf("tuned speed %.0f, want > 960 (max 1000)", res.Speed)
	}
	lp := math.Log2(float64(res.Partition))
	lc := math.Log2(float64(res.Credit))
	if math.Abs(lp-22) > 1.5 || math.Abs(lc-24) > 1.5 {
		t.Fatalf("tuned params %d/%d (log2 %.1f/%.1f), want near 2^22/2^24", res.Partition, res.Credit, lp, lc)
	}
}
