package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"protoclust/internal/canberra"
	"protoclust/internal/dbscan"
	"protoclust/internal/dissim/tilestore"
	"protoclust/internal/oracle"
)

// randomPoints draws 1-D positions forming a few clumps, the geometry
// the refinement stage actually sees.
func randomPoints(rng *rand.Rand, n int) fakeDist {
	pos := make(fakeDist, n)
	for i := range pos {
		pos[i] = float64(rng.Intn(4)) + rng.Float64()*0.3
	}
	return pos
}

// randomClusters partitions [0, n) into non-empty groups.
func randomClusters(rng *rand.Rand, n int) [][]int {
	k := 1 + rng.Intn(4)
	clusters := make([][]int, k)
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		clusters[c] = append(clusters[c], i)
	}
	out := clusters[:0]
	for _, c := range clusters {
		if len(c) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// streamBackend is one distances implementation under test.
type streamBackend struct {
	name string
	m    distances
}

// streamBackends builds one random population of short byte segments
// on the dense, condensed and tiled backends; the tiled one has tiles
// of a random small edge under a one-tile budget, so its upper rows
// arrive in several spans from recomputed tiles. The alphabet is tiny,
// so equal segments — and tied distances between and within clusters —
// are common.
func streamBackends(t *testing.T, rng *rand.Rand, n int) []streamBackend {
	t.Helper()
	views := make([]canberra.View, n)
	for i := range views {
		v := make(canberra.View, 2+rng.Intn(2))
		for k := range v {
			v[k] = float64(rng.Intn(3))
		}
		views[i] = v
	}
	tiled, err := tilestore.New(context.Background(), views, tilestore.Config{
		TileSize:    1 + rng.Intn(5),
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
	return []streamBackend{{"dense", dense}, {"condensed", condensed}, {"tiled", tiled}}
}

// TestComputeStatsMatchesOracle cross-checks the streamed cluster
// statistics (mean pairwise, max pairwise, median 1-NN) of every
// cluster of a random partition against the oracle's double loops, bit
// for bit, on every backend.
func TestComputeStatsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(30)
		clusters := randomClusters(rng, n)
		for _, be := range streamBackends(t, rng, n) {
			ms, err := computeStats(context.Background(), clusters, be.m)
			if err != nil {
				t.Fatal(err)
			}
			for ci, c := range clusters {
				if len(c) < 2 {
					continue
				}
				st := ms.stats[ci]
				for _, f := range []struct {
					name      string
					got, want float64
				}{
					{"meanD", st.meanD, oracle.PairwiseMean(c, be.m.Dist)},
					{"dmax", st.dmax, oracle.PairwiseMax(c, be.m.Dist)},
					{"minmed", st.minmed, oracle.NearestNeighborMedian(c, be.m.Dist)},
				} {
					if math.Float64bits(f.got) != math.Float64bits(f.want) {
						t.Fatalf("trial %d %s cluster %d: %s = %v, oracle %v", trial, be.name, ci, f.name, f.got, f.want)
					}
				}
			}
		}
	}
}

// TestLinkSegmentsMatchesOracleAndSymmetric checks the streamed
// closest pair of every two clusters against the oracle's a-then-b
// scan, endpoints and distance bit for bit — ties included, which the
// tiny alphabet of streamBackends makes frequent — and its symmetry:
// listing the clusters in reverse mirrors the endpoints onto pairs at
// the same link distance.
func TestLinkSegmentsMatchesOracleAndSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ties := 0
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(30)
		clusters := randomClusters(rng, n)
		reversed := slices.Clone(clusters)
		slices.Reverse(reversed)
		for _, be := range streamBackends(t, rng, n) {
			ms, err := computeStats(context.Background(), clusters, be.m)
			if err != nil {
				t.Fatal(err)
			}
			rev, err := computeStats(context.Background(), reversed, be.m)
			if err != nil {
				t.Fatal(err)
			}
			last := len(clusters) - 1
			for i := range clusters {
				for j := i + 1; j < len(clusters); j++ {
					if len(clusters[i]) < 2 || len(clusters[j]) < 2 {
						continue
					}
					l := ms.link(i, j)
					oa, ob, od := oracle.LinkSegments(clusters[i], clusters[j], be.m.Dist)
					if l.a != oa || l.b != ob || math.Float64bits(l.d) != math.Float64bits(od) {
						t.Fatalf("trial %d %s clusters %d,%d: link (%d,%d,%v), oracle (%d,%d,%v)",
							trial, be.name, i, j, l.a, l.b, l.d, oa, ob, od)
					}
					tied := 0
					for _, x := range clusters[i] {
						for _, y := range clusters[j] {
							if math.Float64bits(be.m.Dist(x, y)) == math.Float64bits(od) {
								tied++
							}
						}
					}
					if tied > 1 {
						ties++
					}
					r := rev.link(last-j, last-i)
					if math.Float64bits(r.d) != math.Float64bits(l.d) || be.m.Dist(r.a, r.b) != r.d {
						t.Fatalf("trial %d %s: reversed link (%d,%d,%v) vs (%d,%d,%v)",
							trial, be.name, r.a, r.b, r.d, l.a, l.b, l.d)
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no tied link pair was exercised")
	}
}

// TestRhoEpsMatchesOracleAndPermutationInvariant checks the ε-local
// density against the oracle and its invariance under reordering of
// the cluster member list.
func TestRhoEpsMatchesOracleAndPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		m := randomPoints(rng, 3+rng.Intn(30))
		cluster := make([]int, len(m))
		for i := range cluster {
			cluster[i] = i
		}
		link := rng.Intn(len(m))
		eps := 0.05 + rng.Float64()*0.6

		rho, cnt := rhoEps(link, cluster, eps, m)
		dist := func(i, j int) float64 { return m.Dist(i, j) }
		orho, ocnt := oracle.RhoEps(link, cluster, eps, dist)
		if cnt != ocnt || math.Abs(rho-orho) > 1e-12 {
			t.Fatalf("trial %d: rhoEps = (%v,%d), oracle (%v,%d)", trial, rho, cnt, orho, ocnt)
		}
		rng.Shuffle(len(cluster), func(i, j int) { cluster[i], cluster[j] = cluster[j], cluster[i] })
		rho2, cnt2 := rhoEps(link, cluster, eps, m)
		if cnt2 != cnt || math.Abs(rho2-rho) > 1e-12 {
			t.Fatalf("trial %d: rhoEps changed under member permutation: (%v,%d) vs (%v,%d)",
				trial, rho, cnt, rho2, cnt2)
		}
	}
}

// TestMergeClustersPermutationInvariant checks that the merged
// partition — as a set of sets — does not depend on the order clusters
// are listed in or the order of members within each cluster.
func TestMergeClustersPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	p := DefaultParams()
	for trial := 0; trial < 60; trial++ {
		m := randomPoints(rng, 6+rng.Intn(30))
		clusters := randomClusters(rng, len(m))

		base, err := mergeClusters(context.Background(), clusters, m, p)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			shuffled := make([][]int, len(clusters))
			for i, c := range clusters {
				cp := append([]int(nil), c...)
				rng.Shuffle(len(cp), func(a, b int) { cp[a], cp[b] = cp[b], cp[a] })
				shuffled[i] = cp
			}
			rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			got, err := mergeClusters(context.Background(), shuffled, m, p)
			if err != nil {
				t.Fatal(err)
			}
			if !oracle.EqualPartitions(base, got) {
				t.Fatalf("trial %d rep %d: merge depends on input order:\nbase %v\ngot  %v\ninput %v",
					trial, rep, oracle.CanonicalPartition(base), oracle.CanonicalPartition(got), shuffled)
			}
		}
	}
}

// TestMergeClustersPreservesMembers checks that merging never drops or
// duplicates a member, whatever the input partition.
func TestMergeClustersPreservesMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	p := DefaultParams()
	for trial := 0; trial < 60; trial++ {
		m := randomPoints(rng, 5+rng.Intn(25))
		clusters := randomClusters(rng, len(m))
		out, err := mergeClusters(context.Background(), clusters, m, p)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]int)
		for _, c := range out {
			for _, i := range c {
				seen[i]++
			}
		}
		if len(seen) != len(m) {
			t.Fatalf("trial %d: merge output covers %d of %d members", trial, len(seen), len(m))
		}
		for i, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("trial %d: member %d appears %d times", trial, i, cnt)
			}
		}
	}
}

// TestRefinementDegenerateInputsNoPanic drives the refinement helpers
// with empty and singleton inputs; all must return without panicking.
func TestRefinementDegenerateInputsNoPanic(t *testing.T) {
	m := fakeDist{0, 1, 2}
	p := DefaultParams()
	if out, err := mergeClusters(context.Background(), nil, m, p); err != nil || len(out) != 0 {
		t.Errorf("mergeClusters(nil) = %v, %v", out, err)
	}
	if out, err := mergeClusters(context.Background(), [][]int{{0}}, m, p); err != nil || len(out) != 1 {
		t.Errorf("mergeClusters(singleton) = %v, %v", out, err)
	}
	if out, err := mergeClusters(context.Background(), [][]int{{0}, {1}, {2}}, m, p); err != nil || len(out) != 3 {
		t.Errorf("mergeClusters(three singletons) = %v, %v", out, err)
	}
	if out := splitClusters(nil, func(int) int { return 1 }, p); len(out) != 0 {
		t.Errorf("splitClusters(nil) = %v", out)
	}
	if out := splitClusters([][]int{{}}, func(int) int { return 1 }, p); len(out) != 1 {
		t.Errorf("splitClusters(empty cluster) = %v", out)
	}
	ms, err := computeStats(context.Background(), [][]int{{0}}, m)
	if err != nil || ms.stats[0].dmax != 0 {
		t.Errorf("singleton stats = %+v, %v", ms, err)
	}
}

// TestConfigureStableUnderShuffle feeds Configure the same segment
// population in shuffled orders: the selected ε, k, and min_samples
// must not depend on input order.
func TestConfigureStableUnderShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	values := bimodalValues(rng, 40)
	_, m := poolFromValues(t, values)
	base, err := Configure(m, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		shuffled := append([][]byte(nil), values...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		_, m2 := poolFromValues(t, shuffled)
		got, err := Configure(m2, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if got.Epsilon != base.Epsilon || got.K != base.K || got.MinSamples != base.MinSamples {
			t.Fatalf("rep %d: configuration depends on segment order: (ε=%v k=%d ms=%d) vs (ε=%v k=%d ms=%d)",
				rep, got.Epsilon, got.K, got.MinSamples, base.Epsilon, base.K, base.MinSamples)
		}
	}
}
