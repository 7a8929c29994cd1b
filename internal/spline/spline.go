// Package spline implements least-squares smoothing with cubic
// B-splines.
//
// Algorithm 1 of the paper smooths the ECDF of k-NN dissimilarities with
// a B-spline before knee detection, to remove local statistical
// fluctuations. This package fits a clamped uniform cubic B-spline to
// scattered (x, y) samples by linear least squares and evaluates it with
// the Cox–de Boor recursion.
//
// A cubic B-spline has local support: on the knot span that contains x
// at most degree+1 = 4 basis functions are non-zero. Fitting and
// evaluation therefore touch only those four per sample, the normal
// matrix AᵀA is banded, and it is solved by band-limited Gaussian
// elimination — O(m) time in the m samples and O(nCtrl) memory. The
// result is bit-identical to evaluating every basis function and
// eliminating the dense matrix (internal/oracle.SmoothWeighted): the
// skipped terms are exact zeros, and adding or subtracting +0 leaves
// every accumulator unchanged.
package spline

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"protoclust/internal/vecmath"
)

const degree = 3 // cubic

// bandWidth is the stored width of one row of the normal matrix: the
// degree sub-diagonals, the diagonal, and 2·degree super-diagonals —
// degree of them from AᵀA itself and degree more for the fill-in that
// partial pivoting moves above the diagonal.
const bandWidth = 3*degree + 1

// Errors returned by Fit.
var (
	ErrTooFewPoints = errors.New("spline: need at least two data points")
	ErrBadControl   = errors.New("spline: need at least degree+1 control points")
	ErrSingular     = errors.New("spline: normal equations are singular")
)

// Spline is a fitted clamped uniform cubic B-spline.
type Spline struct {
	knots []float64 // clamped knot vector, length nCtrl+degree+1
	ctrl  []float64 // control-point ordinates
	lo    float64   // domain lower bound
	hi    float64   // domain upper bound
}

// Fit fits a cubic B-spline with nCtrl control points to the samples
// (xs[i], ys[i]) by least squares. xs must be non-decreasing and span a
// positive interval. Smaller nCtrl yields stronger smoothing.
func Fit(xs, ys []float64, nCtrl int) (*Spline, error) {
	return FitWeighted(xs, ys, nil, nCtrl)
}

// FitWeighted is Fit with a per-sample weight: each sample contributes
// ws[i] times to the least-squares objective, exactly as if it appeared
// ws[i] times in the input. This lets callers collapse tied abscissae
// (e.g. vertical runs of an ECDF) into one point per distinct x without
// changing where the fit puts its mass. A nil ws means unit weights;
// non-positive weights drop the sample from the objective.
func FitWeighted(xs, ys, ws []float64, nCtrl int) (*Spline, error) {
	if len(xs) < 2 || len(xs) != len(ys) {
		return nil, ErrTooFewPoints
	}
	if ws != nil && len(ws) != len(xs) {
		return nil, ErrTooFewPoints
	}
	if nCtrl < degree+1 {
		return nil, ErrBadControl
	}
	if nCtrl > len(xs) {
		nCtrl = len(xs)
		if nCtrl < degree+1 {
			return nil, ErrBadControl
		}
	}
	lo, hi := xs[0], xs[len(xs)-1]
	if !(hi > lo) {
		return nil, fmt.Errorf("spline: degenerate domain [%v,%v]: %w", lo, hi, ErrTooFewPoints)
	}

	knots := clampedKnots(lo, hi, nCtrl)
	// Local support rests on a non-decreasing knot vector; only a domain
	// whose width hi-lo overflows can break it.
	if !slices.IsSorted(knots) {
		return nil, fmt.Errorf("spline: domain [%v,%v] too wide for uniform knots: %w", lo, hi, ErrTooFewPoints)
	}

	// Assemble the normal equations AᵀA c = Aᵀy, where A[i][j] is the
	// j-th basis function evaluated at xs[i]. Row i of A is non-zero
	// only in the degree+1 columns of its knot span, so each sample adds
	// one (degree+1)² block on the diagonal band.
	ata := make([]float64, nCtrl*bandWidth)
	aty := make([]float64, nCtrl)
	var basis [degree + 1]float64
	for i, x := range xs {
		w := 1.0
		if ws != nil {
			w = ws[i]
			if w <= 0 {
				continue
			}
		}
		j0 := localBasis(&basis, knots, x, lo, hi)
		for q, b := range basis {
			if vecmath.IsZero(b) {
				continue
			}
			r := j0 + q
			aty[r] += w * b * ys[i]
			row := ata[r*bandWidth+degree-r:] // row[c] is AᵀA[r][c]
			for qc, bc := range basis {
				row[j0+qc] += w * b * bc
			}
		}
	}
	// Tiny Tikhonov regularisation keeps the system well-posed when
	// data points leave some basis functions unsupported.
	for r := 0; r < nCtrl; r++ {
		ata[r*bandWidth+degree] += 1e-9
	}
	ctrl, err := solveBand(ata, aty)
	if err != nil {
		return nil, err
	}
	return &Spline{knots: knots, ctrl: ctrl, lo: lo, hi: hi}, nil
}

// Eval evaluates the spline at x. Arguments outside the fitted domain
// are clamped to the boundary.
func (s *Spline) Eval(x float64) float64 {
	if x < s.lo {
		x = s.lo
	}
	if x > s.hi {
		x = s.hi
	}
	var basis [degree + 1]float64
	j0 := localBasis(&basis, s.knots, x, s.lo, s.hi)
	var y float64
	for q, b := range basis {
		if !vecmath.IsZero(b) {
			y += s.ctrl[j0+q] * b
		}
	}
	return y
}

// Domain returns the fitted x interval.
func (s *Spline) Domain() (lo, hi float64) { return s.lo, s.hi }

// Smooth fits a spline to (xs, ys) and returns the smoothed ordinates at
// the same xs. The smoothness parameter in (0, 1] controls the number of
// control points relative to the number of samples: smaller values mean
// stronger smoothing. When fitting fails (degenerate inputs), it returns
// a copy of the original ys together with the fit error, so callers can
// proceed and still count the fallback.
func Smooth(xs, ys []float64, smoothness float64) ([]float64, error) {
	return SmoothWeighted(xs, ys, nil, smoothness)
}

// SmoothWeighted is Smooth with per-sample weights (see FitWeighted).
// The control-point count scales with the total weight — the effective
// sample count — rather than the number of distinct points, so a
// population collapsed from n tied samples to m distinct values is
// smoothed as strongly as the uncollapsed one. A nil ws means unit
// weights.
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
	if nCtrl < degree+1 {
		nCtrl = degree + 1
	}
	sp, err := FitWeighted(xs, ys, ws, nCtrl)
	if err != nil {
		return append([]float64(nil), ys...), err
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = sp.Eval(x)
	}
	return out, nil
}

// clampedKnots builds a clamped uniform knot vector for nCtrl control
// points over [lo, hi].
func clampedKnots(lo, hi float64, nCtrl int) []float64 {
	n := nCtrl + degree + 1
	knots := make([]float64, n)
	inner := nCtrl - degree // number of spans
	for i := 0; i < n; i++ {
		switch {
		case i <= degree:
			knots[i] = lo
		case i >= n-degree-1:
			knots[i] = hi
		default:
			knots[i] = lo + (hi-lo)*float64(i-degree)/float64(inner)
		}
	}
	return knots
}

// localBasis fills basis with N_{j0+q,degree}(x) for q = 0..degree and
// returns j0. These are the only basis functions that can be non-zero
// at x: j0+degree = s, where [knots[s], knots[s+1]) is the knot span
// that contains x, and x == hi falls in the last non-empty span,
// mirroring the right-closed case of bsplineBasis. Every other basis
// function is an exact zero there. knots must be non-decreasing and
// clamped.
func localBasis(basis *[degree + 1]float64, knots []float64, x, lo, hi float64) int {
	// s is the last index with knots[s] <= x < knots[s+1]; for x == hi,
	// the last with knots[s] < knots[s+1] == hi. Searching for the first
	// knot that is > x or == hi covers both. The clamped ends pin s to
	// [degree, nCtrl-1].
	l, r := degree+1, len(knots)-degree-1
	for l < r {
		m := int(uint(l+r) >> 1)
		if knots[m] > x || knots[m] >= hi {
			r = m
		} else {
			l = m + 1
		}
	}
	j0 := l - 1 - degree
	for q := range basis {
		basis[q] = bsplineBasis(j0+q, degree, knots, x, lo, hi)
	}
	return j0
}

// bsplineBasis computes the Cox–de Boor basis function N_{j,p}(x).
// The right boundary is handled so that the last basis function is 1 at
// x == hi (closed on the right).
func bsplineBasis(j, p int, knots []float64, x, lo, hi float64) float64 {
	if p == 0 {
		if knots[j] <= x && x < knots[j+1] {
			return 1
		}
		// Close the right end of the domain.
		if vecmath.EqualExact(x, hi) && knots[j] < knots[j+1] && vecmath.EqualExact(knots[j+1], hi) {
			return 1
		}
		return 0
	}
	var left, right float64
	if d := knots[j+p] - knots[j]; d > 0 {
		left = (x - knots[j]) / d * bsplineBasis(j, p-1, knots, x, lo, hi)
	}
	if d := knots[j+p+1] - knots[j+1]; d > 0 {
		right = (knots[j+p+1] - x) / d * bsplineBasis(j+1, p-1, knots, x, lo, hi)
	}
	return left + right
}

// solveBand performs Gaussian elimination with partial pivoting on a
// square system whose matrix has lower bandwidth degree, mutating its
// arguments. a holds len(b) rows of bandWidth entries; a[i*bandWidth +
// j-i+degree] is element (i, j), for j-i in [-degree, 2·degree].
//
// The loops are those of dense elimination restricted to the band: at
// column col only rows col..col+degree can hold a non-zero, and the
// pivot row's non-zeros end at col+2·degree. With finite entries,
// everything outside is an exact +0 in the dense algorithm as well —
// never a pivot candidate, scaled to a skipped ±0 factor, or subtracted
// as ±0 — so the solution is bit-identical to the dense one.
func solveBand(a, b []float64) ([]float64, error) {
	n := len(b)
	const w = bandWidth - 1 // (i, j) lives at i*w + j + degree
	for col := 0; col < n; col++ {
		last := min(col+degree, n-1)
		end := min(col+2*degree, n-1)
		// Partial pivot.
		pivot := col
		for r := col + 1; r <= last; r++ {
			if math.Abs(a[r*w+col+degree]) > math.Abs(a[pivot*w+col+degree]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot*w+col+degree]) < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			for c := col; c <= end; c++ {
				a[col*w+c+degree], a[pivot*w+c+degree] = a[pivot*w+c+degree], a[col*w+c+degree]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a[col*w+col+degree]
		for r := col + 1; r <= last; r++ {
			f := a[r*w+col+degree] * inv
			if vecmath.IsZero(f) {
				continue
			}
			for c := col; c <= end; c++ {
				a[r*w+c+degree] -= f * a[col*w+c+degree]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c <= min(r+2*degree, n-1); c++ {
			sum -= a[r*w+c+degree] * x[c]
		}
		x[r] = sum / a[r*w+r+degree]
	}
	return x, nil
}
