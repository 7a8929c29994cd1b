package spline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"protoclust/internal/oracle"
	"protoclust/internal/vecmath"
)

// checkAgainstOracle requires SmoothWeighted to agree with the dense
// reference fitter bit for bit: the same fit-or-fallback outcome and
// the same float64 bits in every output value, signed zeros included.
func checkAgainstOracle(t *testing.T, name string, xs, ys, ws []float64, smoothness float64) {
	t.Helper()
	got, gotErr := SmoothWeighted(xs, ys, ws, smoothness)
	want, wantErr := oracle.SmoothWeighted(xs, ys, ws, smoothness)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, oracle err = %v", name, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d (x=%v) = %v (%#x), oracle %v (%#x)", name, i, xs[i],
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// collapse turns sorted raw samples into the weighted ECDF form the
// auto-configuration fits: one point per distinct value, its run's mean
// step height, and the run length as weight.
func collapse(sorted []float64) (xs, ys, ws []float64) {
	n := len(sorted)
	runStart := 0
	for i, x := range sorted {
		if i+1 < n && vecmath.EqualExact(sorted[i+1], x) {
			continue
		}
		xs = append(xs, x)
		ys = append(ys, (float64(runStart+1)+float64(i+1))/2/float64(n))
		ws = append(ws, float64(i+1-runStart))
		runStart = i + 1
	}
	return xs, ys, ws
}

// ecdfUnweighted returns the raw step ECDF of sorted samples.
func ecdfUnweighted(sorted []float64) []float64 {
	ys := make([]float64, len(sorted))
	for i := range ys {
		ys[i] = float64(i+1) / float64(len(sorted))
	}
	return ys
}

func TestSmoothWeightedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gens := []struct {
		name string
		gen  func() float64
	}{
		{"uniform", rng.Float64},
		{"quantized", func() float64 { return float64(rng.Intn(12)) / 11 }},
		{"skewed", func() float64 { return math.Min(1, rng.ExpFloat64()*rng.ExpFloat64()/8) }},
	}
	for _, g := range gens {
		name, gen := g.name, g.gen
		for _, n := range []int{5, 37, 400, 1500} {
			raw := make([]float64, n)
			for i := range raw {
				raw[i] = gen()
			}
			slices.Sort(raw)
			for _, s := range []float64{0.1, 0.05, 0.5, 1} {
				if s*float64(n) > 400 {
					continue // keeps the O(nCtrl³) oracle cheap
				}
				checkAgainstOracle(t, name+"/unweighted", raw, ecdfUnweighted(raw), nil, s)
				xs, ys, ws := collapse(raw)
				checkAgainstOracle(t, name+"/weighted", xs, ys, ws, s)
				// Dropped and fractional weights.
				ws2 := append([]float64(nil), ws...)
				for i := range ws2 {
					switch rng.Intn(4) {
					case 0:
						ws2[i] = 0
					case 1:
						ws2[i] = -1
					case 2:
						ws2[i] *= rng.Float64()
					}
				}
				checkAgainstOracle(t, name+"/sparse-weights", xs, ys, ws2, s)
			}
		}
	}
}

func TestSmoothWeightedMatchesOracleEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	line := func(n int) (xs, ys []float64) {
		xs = vecmath.Linspace(0, 1, n)
		ys = make([]float64, n)
		for i := range ys {
			ys[i] = xs[i]*xs[i] + 0.01*rng.NormFloat64()
		}
		return xs, ys
	}

	// nCtrl == degree+1: a single knot span.
	xs, ys := line(30)
	checkAgainstOracle(t, "nCtrl=4", xs, ys, nil, 0.1)

	// nCtrl capped at len(xs): heavy weights ask for more control points
	// than there are samples.
	xs, ys = line(9)
	ws := make([]float64, len(xs))
	for i := range ws {
		ws[i] = 50
	}
	checkAgainstOracle(t, "nCtrl capped", xs, ys, ws, 1)

	// Samples exactly on every knot: lo, hi and each interior knot of the
	// fit SmoothWeighted will choose, plus points between them.
	for _, nCtrl := range []int{4, 5, 13, 64} {
		lo, hi := 0.125, 0.875
		knots := clampedKnots(lo, hi, nCtrl)
		var pts []float64
		for i, k := range knots {
			pts = append(pts, k)
			if i+1 < len(knots) && knots[i+1] > k {
				for j := 0; j < 3; j++ {
					pts = append(pts, k+(knots[i+1]-k)*rng.Float64())
				}
			}
		}
		slices.Sort(pts)
		pts = slices.Compact(pts)
		// Unit weights scaled so that ⌈s·Σw⌉ = nCtrl exactly.
		s := float64(nCtrl) / float64(len(pts))
		if s > 1 {
			t.Fatalf("nCtrl=%d: too few points (%d)", nCtrl, len(pts))
		}
		checkAgainstOracle(t, "on-knots", pts, ecdfUnweighted(pts), nil, s)
		// The same points with the right end repeated as a tie run.
		raw := append(append([]float64(nil), pts...), hi, hi, hi)
		cx, cy, cw := collapse(raw)
		checkAgainstOracle(t, "on-knots/weighted", cx, cy, cw, s)
	}

	// A domain two ulps wide: the top quarter of the interior knots
	// rounds onto hi, so x == hi must fall in the last non-empty span,
	// degree or more spans before the last one.
	var narrow []float64
	for _, x := range []float64{1, math.Nextafter(1, 2), math.Nextafter(math.Nextafter(1, 2), 2)} {
		for j := 0; j < 10; j++ {
			narrow = append(narrow, x)
		}
	}
	checkAgainstOracle(t, "ulp-wide", narrow, ecdfUnweighted(narrow), nil, 1)

	// Fallbacks must agree too.
	checkAgainstOracle(t, "degenerate", []float64{3, 3, 3}, []float64{1, 2, 3}, nil, 0.5)
	checkAgainstOracle(t, "two-points", []float64{0, 1}, []float64{0, 1}, nil, 0.5)
	checkAgainstOracle(t, "three-points", []float64{0, 0.5, 1}, []float64{0, 0.5, 1}, nil, 0.5)
}

func TestSolveBandMatchesDenseElimination(t *testing.T) {
	// General matrices of lower and upper bandwidth degree, not just
	// normal matrices: row exchanges to the farthest candidate and the
	// fill-in they carry out to column col+2·degree are routine here,
	// while B-spline normal matrices rarely need them.
	rng := rand.New(rand.NewSource(3))
	var far int
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
			for j := max(0, i-degree); j <= min(n-1, i+degree); j++ {
				if rng.Intn(5) > 0 {
					dense[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				}
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		band := toBand(dense)
		for col := 0; col+degree < n; col++ {
			if math.Abs(dense[col+degree][col]) > math.Abs(dense[col][col]) {
				far++
			}
		}
		got, err := solveBand(band, slices.Clone(b))
		want, ok := oracle.SolveDense(dense, b)
		if (err == nil) != ok {
			t.Fatalf("trial %d: err = %v, dense ok = %v", trial, err, ok)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: x[%d] = %v, dense %v", trial, i, got[i], want[i])
			}
		}
	}
	if far == 0 {
		t.Fatal("no trial offered a far pivot; the generator no longer covers fill-in")
	}
}

// FuzzSmoothWeighted is a differential fuzz target: for ECDF-shaped
// inputs decoded from arbitrary bytes, SmoothWeighted must match the
// dense reference fitter bit for bit.
//
// Each 2-byte group of data is one sample in [0, 1] quantized to q
// levels (heavy ties for small q); the samples are sorted. With
// weighted set, tie runs are collapsed into multiplicity weights as the
// auto-configuration does, and every third weight is dropped when
// sparse is set. smooth picks the smoothness (smooth+1)/256.
func FuzzSmoothWeighted(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 9, 9, 200, 1, 255, 255}, uint16(0), uint8(25), true, false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, uint16(3), uint8(255), false, false)
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 1, 1, 250, 250, 250, 250, 0, 0}, uint16(5), uint8(100), true, true)
	f.Fuzz(func(t *testing.T, data []byte, q uint16, smooth uint8, weighted, sparse bool) {
		const maxSamples = 128 // keeps the O(nCtrl³) oracle cheap
		if len(data) > 2*maxSamples {
			data = data[:2*maxSamples]
		}
		levels := float64(q)
		if q == 0 {
			levels = 65535
		}
		raw := make([]float64, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			v := float64(binary.BigEndian.Uint16(data[i:])) / 65535
			raw = append(raw, math.Round(v*levels)/levels)
		}
		slices.Sort(raw)
		s := (float64(smooth) + 1) / 256
		if !weighted {
			checkAgainstOracle(t, "unweighted", raw, ecdfUnweighted(raw), nil, s)
			return
		}
		xs, ys, ws := collapse(raw)
		if sparse {
			for i := 0; i < len(ws); i += 3 {
				ws[i] = 0
			}
		}
		checkAgainstOracle(t, "weighted", xs, ys, ws, s)
	})
}

func TestFitRejectsOverflowingDomain(t *testing.T) {
	// A domain whose width overflows has no uniform knot vector (the
	// interior knots become +Inf, past hi); local support would not
	// hold, so the fit must fail rather than mis-evaluate.
	xs := []float64{-1e308, -1, 0, 1, 2, 1e308}
	if _, err := Fit(xs, []float64{0, 1, 2, 3, 4, 5}, 5); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("err = %v, want wrapped ErrTooFewPoints", err)
	}
}

// BenchmarkSmoothWeighted smooths an m-sample ECDF with the pipeline's
// default smoothness (nCtrl = ⌈0.1·m⌉). Fit and evaluation are O(m)
// and the banded normal matrix O(nCtrl) bytes, so B/op grows linearly
// in m.
func BenchmarkSmoothWeighted(b *testing.B) {
	for _, m := range []int{2000, 10000, 50000} {
		rng := rand.New(rand.NewSource(int64(m)))
		raw := make([]float64, m)
		for i := range raw {
			raw[i] = rng.ExpFloat64()
		}
		slices.Sort(raw)
		ys := ecdfUnweighted(raw)
		b.Run(fmt.Sprintf("m=%dk", m/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SmoothWeighted(raw, ys, nil, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
