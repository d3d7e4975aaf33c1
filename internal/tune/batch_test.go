package tune

import (
	"math"
	"testing"
)

func testBounds() Bounds {
	return Bounds{Lo: []float64{0, 0}, Hi: []float64{1, 2}}
}

// A batched random search must replay the sequential trajectory exactly:
// NextBatch(k) draws k points from the same RNG stream Next would use.
func TestRandomSearchBatchMatchesSequential(t *testing.T) {
	seq := NewRandomSearch(testBounds(), 7)
	bat := NewRandomSearch(testBounds(), 7)
	var seqPts [][]float64
	for i := 0; i < 12; i++ {
		seqPts = append(seqPts, seq.Next())
	}
	var batPts [][]float64
	for len(batPts) < 12 {
		batPts = append(batPts, bat.NextBatch(3)...)
		ys := make([]float64, 3)
		bat.ObserveBatch(batPts[len(batPts)-3:], ys)
	}
	for i := range seqPts {
		for d := range seqPts[i] {
			if seqPts[i][d] != batPts[i][d] {
				t.Fatalf("point %d dim %d: sequential %v, batched %v", i, d, seqPts[i], batPts[i])
			}
		}
	}
}

// Regression for the GridSearch Points() recompute bug and the batch-mode
// pass guarantee: a full grid pass — in any batch size — visits each point
// exactly once, and a second pass wraps onto the identical sequence.
func TestGridSearchFullPassExactlyOnce(t *testing.T) {
	for _, batch := range []int{1, 2, 3, 5, 9} {
		g := NewGridSearch(testBounds(), 3)
		if g.Points() != 9 {
			t.Fatalf("Points() = %d, want 9", g.Points())
		}
		seen := map[[2]float64]int{}
		visited := 0
		for visited < g.Points() {
			k := batch
			if rem := g.Points() - visited; rem < k {
				k = rem
			}
			xs := g.NextBatch(k)
			ys := make([]float64, len(xs))
			g.ObserveBatch(xs, ys)
			for _, x := range xs {
				seen[[2]float64{x[0], x[1]}]++
			}
			visited += len(xs)
		}
		if len(seen) != 9 {
			t.Fatalf("batch=%d: %d distinct points in a full pass, want 9", batch, len(seen))
		}
		for p, n := range seen {
			if n != 1 {
				t.Fatalf("batch=%d: point %v visited %d times, want 1", batch, p, n)
			}
		}
		// Post-exhaustion wrap: the next proposal is the first grid point.
		first := g.Next()
		b := testBounds()
		if first[0] != b.Lo[0] || first[1] != b.Lo[1] {
			t.Fatalf("batch=%d: wrap proposal = %v, want grid origin", batch, first)
		}
	}
}

// The constant-liar BO must retract its lies: after NextBatch+ObserveBatch
// the surrogate's dataset holds exactly the true observations, and Best
// reflects only real objective values.
func TestBOConstantLiarRetractsLies(t *testing.T) {
	b := NewBO(ParamBounds(), 3, WithInitPoints(3))
	b.candidates = 32
	obj := func(x []float64) float64 { return -(x[0]-20)*(x[0]-20) - (x[1]-24)*(x[1]-24) }

	total := 0
	for round := 0; round < 4; round++ {
		xs := b.NextBatch(4)
		if b.lies != 4 {
			t.Fatalf("round %d: lies = %d, want 4", round, b.lies)
		}
		if len(b.xs) != total+4 {
			t.Fatalf("round %d: surrogate holds %d points mid-batch, want %d", round, len(b.xs), total+4)
		}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = obj(x)
		}
		b.ObserveBatch(xs, ys)
		total += 4
		if b.lies != 0 {
			t.Fatalf("round %d: lies = %d after ObserveBatch, want 0", round, b.lies)
		}
		if len(b.xs) != total || len(b.ys) != total {
			t.Fatalf("round %d: dataset %d/%d, want %d", round, len(b.xs), len(b.ys), total)
		}
	}
	bs := b.Best()
	if math.IsInf(bs.Y, -1) {
		t.Fatal("no best after 16 observations")
	}
	// Best must equal the true objective at its argmax — no lie leaked in.
	if got := obj(bs.X); bs.Y != got {
		t.Fatalf("Best.Y = %g, objective(Best.X) = %g", bs.Y, got)
	}
}

// Proposals inside one BO batch must not all collapse onto a single point
// once the surrogate is active: the lie makes later proposals in the batch
// aware of earlier ones.
func TestBOConstantLiarSpreadsBatch(t *testing.T) {
	b := NewBO(ParamBounds(), 5, WithInitPoints(3))
	b.candidates = 64
	obj := func(x []float64) float64 { return -(x[0] - 20) * (x[0] - 20) }
	// Warm up with real observations so NextBatch goes through acquire().
	for i := 0; i < 3; i++ {
		x := b.Next()
		b.Observe(x, obj(x))
	}
	xs := b.NextBatch(4)
	distinct := map[[2]float64]bool{}
	for _, x := range xs {
		distinct[[2]float64{x[0], x[1]}] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d batched proposals identical: %v", len(xs), xs)
	}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = obj(x)
	}
	b.ObserveBatch(xs, ys)
}

// RunBatch spends exactly n trials, truncating the final round.
func TestRunBatchTruncatesFinalRound(t *testing.T) {
	g := NewGridSearch(testBounds(), 3)
	evals := 0
	best := RunBatch(g, func(xs [][]float64) []float64 {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			evals++
			ys[i] = -x[0] - x[1]
		}
		return ys
	}, 7, 4)
	if evals != 7 {
		t.Fatalf("evals = %d, want 7", evals)
	}
	if math.IsInf(best.Y, -1) {
		t.Fatal("no best sample")
	}
}

// PartitionCreditBatch must agree with PartitionCredit for a
// sequential-equivalent tuner at batch size 1 and spend the same trials.
func TestPartitionCreditBatchMatchesSequential(t *testing.T) {
	obj := func(p, c int64) float64 {
		lp, lc := math.Log2(float64(p)), math.Log2(float64(c))
		return -(lp-21)*(lp-21) - (lc-23)*(lc-23)
	}
	seq := PartitionCredit(NewRandomSearch(ParamBounds(), 11), obj, 20)
	bat := PartitionCreditBatch(NewRandomSearch(ParamBounds(), 11),
		func(ps, cs []int64) []float64 {
			ys := make([]float64, len(ps))
			for i := range ps {
				ys[i] = obj(ps[i], cs[i])
			}
			return ys
		}, 20, DefaultBatch)
	if seq.Partition != bat.Partition || seq.Credit != bat.Credit || seq.Speed != bat.Speed {
		t.Fatalf("sequential %+v != batched %+v", seq, bat)
	}
	if bat.Trials != 20 {
		t.Fatalf("Trials = %d, want 20", bat.Trials)
	}
}
