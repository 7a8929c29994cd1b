package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"protoclust/internal/dbscan"
	"protoclust/internal/vecmath"
)

// distances is the subset of the dissimilarity matrix the refinement
// needs; satisfied by *dissim.Matrix and by test fakes. The merge
// statistics stream upper-triangle rows; rhoEps reads single pairs.
type distances interface {
	Len() int
	Dist(i, j int) float64
	dbscan.UpperStreamer
}

// clusterStats caches the per-cluster quantities used by the merge
// conditions of Section III-F.
type clusterStats struct {
	// meanD is the arithmetic mean of all pairwise dissimilarities.
	meanD float64
	// dmax is the maximum pairwise dissimilarity (the cluster extent).
	dmax float64
	// minmed is the median of each member's 1-nearest-neighbor distance
	// within the cluster.
	minmed float64
}

// link is the closest pair between clusters i < j — the link segments
// s_link_{i,j} = a ∈ i and s_link_{j,i} = b ∈ j — and their distance
// d_link.
type link struct {
	a, b int
	d    float64
}

// mergeStats holds everything the merge conditions read from the
// matrix apart from rhoEps.
type mergeStats struct {
	// stats is indexed by cluster; zero for clusters with fewer than
	// two members (no pairwise distances exist, and a point cluster
	// has no extent).
	stats []clusterStats
	// slot maps a cluster to its rank among the clusters with at least
	// two members, or -1; links is the condensed triangle over slots.
	slot  []int
	slots int
	links []link
}

// link returns the closest pair between clusters i < j, both with at
// least two members.
func (s *mergeStats) link(i, j int) link {
	return s.links[vecmath.CheckedCondensedOff(s.slot[i], s.slot[j], s.slots)]
}

// computeStats gathers the merge statistics of every cluster with at
// least two members, and the closest pair of every two such clusters,
// in one pass over their rows in ascending order, reading each pair
// once at its smaller index. Each cluster sums its pairs (a, b), a < b,
// in ascending (a, b) order, and a link tie resolves to the smallest a,
// then the smallest b; for members listed in ascending order, as
// dbscan.Result.Clusters returns them, that is the order, and the first
// strict minimum, of a double loop over the member lists. Nothing is
// materialized per pair; the link table holds one entry per pair of
// clusters.
func computeStats(ctx context.Context, clusters [][]int, m distances) (*mergeStats, error) {
	n := m.Len()
	s := &mergeStats{stats: make([]clusterStats, len(clusters)), slot: make([]int, len(clusters))}
	of := make([]int, n) // point → cluster with ≥ 2 members, or -1
	for x := range of {
		of[x] = -1
	}
	for ci, c := range clusters {
		s.slot[ci] = -1
		if len(c) < 2 {
			continue
		}
		s.slot[ci] = s.slots
		s.slots++
		for _, x := range c {
			of[x] = ci
		}
	}
	s.links = make([]link, vecmath.CheckedTriNum(s.slots))
	for l := range s.links {
		s.links[l].d = math.Inf(1)
	}
	sums := make([]float64, len(clusters))
	maxs := make([]float64, len(clusters))
	for ci := range maxs {
		maxs[ci] = math.Inf(-1)
	}
	mins := make([]float64, n) // each member's 1-NN distance in its cluster
	for x := range mins {
		mins[x] = math.Inf(1)
	}

	// The span callback is built once; x is the row being streamed.
	var x int
	span := func(lo int, vals []float32) {
		cx := of[x]
		for o, d32 := range vals {
			y := lo + o
			cy := of[y]
			if cy < 0 {
				continue
			}
			d := float64(d32)
			if cy == cx {
				sums[cx] += d
				if d > maxs[cx] {
					maxs[cx] = d
				}
				if d < mins[x] {
					mins[x] = d
				}
				if d < mins[y] {
					mins[y] = d
				}
				continue
			}
			ci, cj, a, b := cx, cy, x, y
			if ci > cj {
				ci, cj, a, b = cj, ci, y, x
			}
			l := &s.links[vecmath.CheckedCondensedOff(s.slot[ci], s.slot[cj], s.slots)]
			if d < l.d || (vecmath.EqualExact(d, l.d) && (a < l.a || (a == l.a && b < l.b))) {
				*l = link{a: a, b: b, d: d}
			}
		}
	}
	for x = 0; x < n; x++ {
		if of[x] < 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: refinement: %w", err)
		}
		m.StreamUpper(x, span)
	}

	for ci, c := range clusters {
		if len(c) < 2 {
			continue
		}
		nn := make([]float64, len(c))
		for k, x := range c {
			nn[k] = mins[x]
		}
		s.stats[ci] = clusterStats{
			meanD:  sums[ci] / float64(vecmath.CheckedTriNum(len(c))),
			dmax:   maxs[ci],
			minmed: vecmath.Median(nn),
		}
	}
	return s, nil
}

// rhoEps is the density ρ_ε around a link segment: the median of the
// dissimilarities from the link segment to its cluster members within
// ε, plus the neighborhood size. An empty ε-neighborhood yields (0, 0).
func rhoEps(link int, cluster []int, eps float64, m distances) (float64, int) {
	var within []float64
	for _, s := range cluster {
		if s == link {
			continue
		}
		if d := m.Dist(link, s); d <= eps {
			within = append(within, d)
		}
	}
	if len(within) == 0 {
		return 0, 0
	}
	return vecmath.Median(within), len(within)
}

// mergeClusters applies the two merge conditions of Section III-F
// transitively (via union-find) and returns the merged clustering.
// Clusters with fewer than two members cannot supply the required
// statistics and are never merged. The statistics and links come from
// one row-ordered pass (computeStats); the context is checked per row
// of that pass and once per outer cluster of the pair loop, so a
// cancelled context aborts within one row or one cluster's pairs.
func mergeClusters(ctx context.Context, clusters [][]int, m distances, p Params) ([][]int, error) {
	n := len(clusters)
	if n < 2 {
		return clusters, nil
	}
	ms, err := computeStats(ctx, clusters, m)
	if err != nil {
		return nil, err
	}
	stats := ms.stats

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: refinement: %w", err)
		}
		if len(clusters[i]) < 2 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if len(clusters[j]) < 2 {
				continue
			}
			l := ms.link(i, j)
			a, b, dLink := l.a, l.b, l.d
			si, sj := stats[i], stats[j]

			// Condition 1: very close by, similar ε-density at the link.
			// Deviation from the paper's formulation (DESIGN.md §5): the
			// closeness bound uses the smaller of the two mean
			// intra-cluster dissimilarities (max() lets one wide chain
			// cluster absorb any neighbor), and both link neighborhoods
			// must be non-empty so that two vacuously-zero densities do
			// not count as "similar".
			if dLink < math.Min(si.meanD, sj.meanD) {
				// ε is half the extent of the smaller cluster.
				ext := si.dmax
				if len(clusters[j]) < len(clusters[i]) {
					ext = sj.dmax
				}
				eps := ext / 2
				rhoA, na := rhoEps(a, clusters[i], eps, m)
				rhoB, nb := rhoEps(b, clusters[j], eps, m)
				if na > 0 && nb > 0 && math.Abs(rhoA-rhoB) < p.EpsRhoThreshold {
					union(i, j)
					continue
				}
			}

			// Condition 2: somewhat close by, similar whole-cluster
			// density.
			if si.meanD > 0 && sj.meanD > 0 {
				closeBound := (si.minmed/si.meanD + sj.minmed/sj.meanD) / 2
				if dLink < closeBound && math.Abs(si.minmed-sj.minmed) < p.NeighborDensityThreshold {
					union(i, j)
				}
			}
		}
	}

	merged := make(map[int][]int)
	order := make([]int, 0, n)
	for i, c := range clusters {
		root := find(i)
		if _, ok := merged[root]; !ok {
			order = append(order, root)
		}
		merged[root] = append(merged[root], c...)
	}
	out := make([][]int, 0, len(order))
	for _, root := range order {
		c := merged[root]
		sort.Ints(c)
		out = append(out, c)
	}
	return out, nil
}

// splitClusters applies the under-classification correction of Section
// III-F: clusters with extremely polarized value occurrences — many
// unique values together with a few very frequent ones — are split at
// the pivot F = ln|c'| into a low-occurrence and a high-occurrence
// subcluster, where |c'| is the number of unique segment values in the
// cluster (paper, Section III-F; see DESIGN.md §5). occCount returns
// the number of concrete segments carrying the unique value at a pool
// index.
func splitClusters(clusters [][]int, occCount func(int) int, p Params) [][]int {
	var out [][]int
	for _, c := range clusters {
		counts := make([]float64, len(c))
		total := 0
		for i, idx := range c {
			n := occCount(idx)
			counts[i] = float64(n)
			total += n
		}
		if total < 3 || len(c) < 2 {
			out = append(out, c)
			continue
		}
		f := math.Log(float64(len(c)))
		pr := vecmath.PercentRank(counts, f)
		sigma := vecmath.StdDev(counts)
		if !(pr > p.PercentRankThreshold && sigma > f) {
			out = append(out, c)
			continue
		}
		var low, high []int
		for i, idx := range c {
			if counts[i] <= f {
				low = append(low, idx)
			} else {
				high = append(high, idx)
			}
		}
		if len(low) == 0 || len(high) == 0 {
			out = append(out, c)
			continue
		}
		out = append(out, low, high)
	}
	return out
}
