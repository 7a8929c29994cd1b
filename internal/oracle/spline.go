package oracle

import (
	"errors"
	"math"
)

// splineDegree is the B-spline degree the pipeline smooths with (cubic).
const splineDegree = 3

// ErrSplineFit is returned by SmoothWeighted when no spline can be
// fitted: too few points, fewer than degree+1 control points, a
// degenerate domain, or singular normal equations.
var ErrSplineFit = errors.New("oracle: spline fit failed")

// SmoothWeighted is the dense reference for spline.SmoothWeighted: a
// weighted least-squares fit of a clamped uniform cubic B-spline with
// nCtrl = max(⌈smoothness·Σw⁺⌉, 4) control points, evaluated back at
// xs. Every basis function is evaluated by the full Cox–de Boor
// recursion at every sample, the normal equations AᵀA c = Aᵀy are
// assembled as a dense nCtrl×nCtrl matrix, and they are solved by
// dense Gaussian elimination with partial pivoting — O(m·nCtrl) basis
// evaluations and O(nCtrl³) flops. On a failed fit it returns a copy of
// ys and ErrSplineFit.
func SmoothWeighted(xs, ys, ws []float64, smoothness float64) ([]float64, error) {
	if smoothness <= 0 || smoothness > 1 {
		smoothness = 0.1
	}
	effective := float64(len(xs))
	if ws != nil {
		effective = 0
		for _, w := range ws {
			if w > 0 {
				effective += w
			}
		}
	}
	nCtrl := int(math.Ceil(smoothness * effective))
	if nCtrl < splineDegree+1 {
		nCtrl = splineDegree + 1
	}
	knots, ctrl, ok := fitDense(xs, ys, ws, nCtrl)
	if !ok {
		return append([]float64(nil), ys...), ErrSplineFit
	}
	lo, hi := xs[0], xs[len(xs)-1]
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		var y float64
		for j := range ctrl {
			if b := coxDeBoor(j, splineDegree, knots, x, hi); b != 0 {
				y += ctrl[j] * b
			}
		}
		out[i] = y
	}
	return out, nil
}

// fitDense returns the knot vector and control points of the
// least-squares fit, or ok = false when the fit is impossible.
func fitDense(xs, ys, ws []float64, nCtrl int) (knots, ctrl []float64, ok bool) {
	if len(xs) < 2 || len(xs) != len(ys) || (ws != nil && len(ws) != len(xs)) {
		return nil, nil, false
	}
	if nCtrl > len(xs) {
		nCtrl = len(xs)
	}
	if nCtrl < splineDegree+1 {
		return nil, nil, false
	}
	lo, hi := xs[0], xs[len(xs)-1]
	if !(hi > lo) {
		return nil, nil, false
	}

	// Clamped uniform knots: degree+1 copies of each end, nCtrl−degree
	// equal spans between.
	knots = make([]float64, nCtrl+splineDegree+1)
	inner := nCtrl - splineDegree
	for i := range knots {
		switch {
		case i <= splineDegree:
			knots[i] = lo
		case i >= len(knots)-splineDegree-1:
			knots[i] = hi
		default:
			knots[i] = lo + (hi-lo)*float64(i-splineDegree)/float64(inner)
		}
	}

	ata := make([][]float64, nCtrl)
	for i := range ata {
		ata[i] = make([]float64, nCtrl)
	}
	aty := make([]float64, nCtrl)
	basis := make([]float64, nCtrl)
	for i, x := range xs {
		w := 1.0
		if ws != nil {
			w = ws[i]
			if w <= 0 {
				continue
			}
		}
		for j := range basis {
			basis[j] = coxDeBoor(j, splineDegree, knots, x, hi)
		}
		for r := range basis {
			if basis[r] == 0 {
				continue
			}
			aty[r] += w * basis[r] * ys[i]
			for c := range basis {
				ata[r][c] += w * basis[r] * basis[c]
			}
		}
	}
	for r := range ata {
		ata[r][r] += 1e-9 // Tikhonov term for unsupported basis functions
	}

	ctrl, ok = SolveDense(ata, aty)
	if !ok {
		return nil, nil, false
	}
	return knots, ctrl, true
}

// SolveDense solves the square system a·x = b by dense Gaussian
// elimination with partial pivoting (first strictly largest |pivot|),
// mutating a and b. It returns ok = false when a pivot falls below
// 1e-300 in magnitude.
func SolveDense(a [][]float64, b []float64) (x []float64, ok bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return nil, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x = make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, true
}

// coxDeBoor evaluates the B-spline basis function N_{j,p}(x) by the
// Cox–de Boor recursion, closing the last non-empty span on the right
// so that the basis sums to one at x == hi.
func coxDeBoor(j, p int, knots []float64, x, hi float64) float64 {
	if p == 0 {
		if knots[j] <= x && x < knots[j+1] {
			return 1
		}
		if x == hi && knots[j] < knots[j+1] && knots[j+1] == hi {
			return 1
		}
		return 0
	}
	var left, right float64
	if d := knots[j+p] - knots[j]; d > 0 {
		left = (x - knots[j]) / d * coxDeBoor(j, p-1, knots, x, hi)
	}
	if d := knots[j+p+1] - knots[j+1]; d > 0 {
		right = (knots[j+p+1] - x) / d * coxDeBoor(j+1, p-1, knots, x, hi)
	}
	return left + right
}
