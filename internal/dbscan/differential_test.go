package dbscan

import (
	"math/rand"
	"testing"

	"protoclust/internal/oracle"
)

// randomMatrix builds a random symmetric dissimilarity matrix whose
// points fall into a few loose clumps, so DBSCAN has real structure to
// find at typical radii.
func randomMatrix(rng *rand.Rand, n int) *DenseMatrix {
	// 1-D positions: clump centers at 0, 1, 2, ... with jitter, plus a
	// few far-out stragglers that should end up noise.
	pos := make([]float64, n)
	for i := range pos {
		switch rng.Intn(5) {
		case 4:
			pos[i] = 10 + rng.Float64()*10 // straggler
		default:
			pos[i] = float64(rng.Intn(3)) + rng.Float64()*0.2
		}
	}
	m, err := NewDenseMatrix(n)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := pos[i] - pos[j]
			if d < 0 {
				d = -d
			}
			m.Set(i, j, d)
		}
	}
	return m
}

// TestClusterMatchesOracle runs the production single-pass DBSCAN and
// the brute-force union-find oracle on randomized inputs and demands
// label-identical output. Both number components by smallest core index
// and attach borders to the lowest reachable cluster — exactly what
// index-order seeded expansion produces — but the oracle materializes
// every ε-neighborhood before deciding anything, while production
// reads each pair once in an upper-triangle pass and settles its edge
// as soon as both core flags are known, so any divergence is a bug in
// one of them.
func TestClusterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(40)
		m := randomMatrix(rng, n)
		eps := 0.05 + rng.Float64()*0.8
		minPts := 1 + rng.Intn(6)

		got, err := Cluster(m, eps, minPts)
		if err != nil {
			t.Fatalf("trial %d: Cluster: %v", trial, err)
		}
		want := oracle.DBSCAN(n, m.Dist, eps, minPts)
		for i := range want {
			if got.Labels[i] != want[i] {
				t.Fatalf("trial %d (n=%d eps=%v minPts=%d): labels diverge at %d: production %v, oracle %v",
					trial, n, eps, minPts, i, got.Labels, want)
			}
		}
		numClusters := 0
		for _, l := range want {
			if l+1 > numClusters {
				numClusters = l + 1
			}
		}
		if got.NumClusters != numClusters {
			t.Fatalf("trial %d: NumClusters = %d, oracle implies %d", trial, got.NumClusters, numClusters)
		}
	}
}

// TestClusterDensityInvariants checks DBSCAN's defining properties
// directly on the production output: noise points are never core, every
// cluster contains at least one core point, and no two core points of
// different clusters lie within ε of each other.
func TestClusterDensityInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(30)
		m := randomMatrix(rng, n)
		eps := 0.05 + rng.Float64()*0.8
		minPts := 1 + rng.Intn(5)
		res, err := Cluster(m, eps, minPts)
		if err != nil {
			t.Fatal(err)
		}
		degree := func(p int) int {
			c := 0
			for q := 0; q < n; q++ {
				if m.Dist(p, q) <= eps {
					c++
				}
			}
			return c
		}
		hasCore := make(map[int]bool)
		for p := 0; p < n; p++ {
			core := degree(p) >= minPts
			if res.Labels[p] == Noise && core {
				t.Fatalf("trial %d: core point %d labeled noise", trial, p)
			}
			if core {
				hasCore[res.Labels[p]] = true
			}
		}
		for c := 0; c < res.NumClusters; c++ {
			if !hasCore[c] {
				t.Fatalf("trial %d: cluster %d has no core point", trial, c)
			}
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if degree(p) >= minPts && degree(q) >= minPts &&
					m.Dist(p, q) <= eps && res.Labels[p] != res.Labels[q] {
					t.Fatalf("trial %d: ε-close cores %d,%d in different clusters %d,%d",
						trial, p, q, res.Labels[p], res.Labels[q])
				}
			}
		}
	}
}
