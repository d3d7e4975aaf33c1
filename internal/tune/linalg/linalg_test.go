package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) < tol }

func TestCholeskyKnown(t *testing.T) {
	a := [][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	}
	for i := range want {
		for j := range want {
			if !almost(l[i][j], want[i][j], 1e-12) {
				t.Fatalf("L[%d][%d] = %v, want %v", i, j, l[i][j], want[i][j])
			}
		}
	}
}

func TestCholeskyRejectsNonPD(t *testing.T) {
	if _, err := Cholesky([][]float64{{1, 0}, {0, -1}}); err != ErrNotPD {
		t.Fatalf("err = %v, want ErrNotPD", err)
	}
	if _, err := Cholesky([][]float64{{1, 2}, {2}}); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestCholSolveIdentity(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := CholSolve(l, []float64{3, 7})
	if !almost(x[0], 3, 1e-12) || !almost(x[1], 7, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestDotMatVec(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	got := matVec([][]float64{{1, 2}, {3, 4}}, []float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("A·x by rows of Dot = %v", got)
	}
}

// matVec returns A·x, one Dot per row.
func matVec(a [][]float64, x []float64) []float64 {
	out := make([]float64, len(a))
	for i, row := range a {
		out[i] = Dot(row, x)
	}
	return out
}

// Property: for random SPD matrices A = MMᵀ + nI, CholSolve(A,b) satisfies
// A·x ≈ b.
func TestCholSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
			for j := range m[i] {
				m[i][j] = rng.NormFloat64()
			}
		}
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				for k := 0; k < n; k++ {
					a[i][j] += m[i][k] * m[j][k]
				}
				if i == j {
					a[i][j] += float64(n)
				}
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := CholSolve(l, b)
		back := matVec(a, x)
		for i := range b {
			if !almost(back[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
