// Package linalg provides the small dense linear algebra the Gaussian
// process needs: Cholesky decomposition and triangular solves, stdlib only.
package linalg

import (
	"errors"
	"math"
)

// ErrNotPD is returned when a matrix is not (numerically) positive
// definite.
var ErrNotPD = errors.New("linalg: matrix not positive definite")

// Cholesky computes the lower-triangular L with A = L Lᵀ for a symmetric
// positive-definite A (only the lower triangle of A is read). It returns a
// newly allocated L.
func Cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		if len(a[i]) != n {
			return nil, errors.New("linalg: matrix not square")
		}
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPD
				}
				l[i][j] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// SolveLower solves L x = b for lower-triangular L by forward substitution.
func SolveLower(l [][]float64, b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i][k] * x[k]
		}
		x[i] = sum / l[i][i]
	}
	return x
}

// solveUpperT solves Lᵀ x = b for lower-triangular L (i.e. an upper
// triangular system) by back substitution.
func solveUpperT(l [][]float64, b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k][i] * x[k]
		}
		x[i] = sum / l[i][i]
	}
	return x
}

// CholSolve solves A x = b given the Cholesky factor L of A.
func CholSolve(l [][]float64, b []float64) []float64 {
	return solveUpperT(l, SolveLower(l, b))
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var sum float64
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}
