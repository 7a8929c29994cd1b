package dbscan_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"protoclust/internal/canberra"
	"protoclust/internal/dbscan"
	"protoclust/internal/dissim/tilestore"
	"protoclust/internal/oracle"
)

// checkBackendsMatchOracle clusters one population on the dense,
// condensed and tiled backends — tiled with tiles of the given edge
// under a one-tile budget, so nearly every row recomputes tiles — and
// requires the labels of oracle.DBSCAN on each. ε is the stored
// distance of pair pick, then the next float64 below it: points at
// exactly ε are neighbors at the first radius and not at the second,
// which pins the <= comparison from both sides.
func checkBackendsMatchOracle(t testing.TB, views []canberra.View, tileSize, pick, minPts int) {
	t.Helper()
	n := len(views)
	tiled, err := tilestore.New(context.Background(), views, tilestore.Config{
		TileSize:    tileSize,
		BudgetBytes: 1,
		Penalty:     canberra.DefaultPenalty,
	})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := dbscan.NewDenseMatrix(n)
	if err != nil {
		t.Fatal(err)
	}
	condensed, err := dbscan.NewCondensedMatrix(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := tiled.Dist(i, j)
			dense.Set(i, j, d)
			condensed.Set(i, j, d)
		}
	}
	eps := dense.Dist(pick%n, pick/n%n)
	if eps <= 0 {
		eps = 0.25
	}
	for _, e := range []float64{eps, math.Nextafter(eps, 0)} {
		want := oracle.DBSCAN(n, dense.Dist, e, minPts)
		clusters := 0
		for _, l := range want {
			clusters = max(clusters, l+1)
		}
		for _, be := range []struct {
			name string
			m    dbscan.Matrix
		}{{"dense", dense}, {"condensed", condensed}, {"tiled", tiled}} {
			got, err := dbscan.Cluster(be.m, e, minPts)
			if err != nil {
				t.Fatalf("%s: Cluster: %v", be.name, err)
			}
			if got.NumClusters != clusters {
				t.Fatalf("%s (n=%d eps=%v minPts=%d): NumClusters = %d, oracle %d",
					be.name, n, e, minPts, got.NumClusters, clusters)
			}
			for i := range want {
				if got.Labels[i] != want[i] {
					t.Fatalf("%s (n=%d eps=%v minPts=%d): labels diverge at %d:\nproduction %v\noracle     %v",
						be.name, n, e, minPts, i, got.Labels, want)
				}
			}
		}
	}
}

// viewsFromBytes cuts data into segments of segLen bytes (the last one
// may be shorter, never empty), at most maxViews of them.
func viewsFromBytes(data []byte, segLen, maxViews int) []canberra.View {
	var views []canberra.View
	for lo := 0; lo < len(data) && len(views) < maxViews; lo += segLen {
		seg := data[lo:min(lo+segLen, len(data))]
		v := make(canberra.View, len(seg))
		for k, b := range seg {
			v[k] = float64(b)
		}
		views = append(views, v)
	}
	return views
}

// TestClusterBackendsMatchOracle runs the differential check on random
// populations drawn from a small alphabet, so duplicate segments and
// tied distances are common, with minPts = 1 (every point core) among
// the thresholds.
func TestClusterBackendsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 150; trial++ {
		data := make([]byte, 2+rng.Intn(120))
		for i := range data {
			data[i] = byte(rng.Intn(4))
		}
		views := viewsFromBytes(data, 2+rng.Intn(3), 48)
		checkBackendsMatchOracle(t, views, 1+rng.Intn(8), rng.Intn(1<<16), 1+trial%5)
	}
}

// FuzzClusterDifferential drives the same check from arbitrary bytes.
func FuzzClusterDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 3, 1, 0, 2, 2, 0, 0}, uint16(5), uint8(0), uint8(2), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 200, 1, 7, 7, 7, 7, 7, 8, 0, 0, 1}, uint16(40), uint8(2), uint8(0), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(1234), uint8(3), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, pick uint16, minPts, tileSize, segLen uint8) {
		views := viewsFromBytes(data, 2+int(segLen%3), 48)
		if len(views) == 0 {
			return
		}
		checkBackendsMatchOracle(t, views, 1+int(tileSize%8), int(pick), 1+int(minPts%6))
	})
}
