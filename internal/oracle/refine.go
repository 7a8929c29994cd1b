package oracle

import "math"

// PairwiseMean returns the arithmetic mean of all pairwise
// dissimilarities within cluster c, by direct double loop over the
// pairs (c[a], c[b]) with a < b, summed in that order so the result is
// bit-comparable with the production pass. NaN for clusters with fewer
// than two members.
func PairwiseMean(c []int, dist DistFunc) float64 {
	var sum float64
	var count int
	for a := 0; a < len(c); a++ {
		for b := a + 1; b < len(c); b++ {
			sum += dist(c[a], c[b])
			count++
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return sum / float64(count)
}

// PairwiseMax returns the maximum pairwise dissimilarity within c (the
// cluster extent), or -Inf for clusters with fewer than two members.
func PairwiseMax(c []int, dist DistFunc) float64 {
	max := math.Inf(-1)
	for a := 0; a < len(c); a++ {
		for b := a + 1; b < len(c); b++ {
			if d := dist(c[a], c[b]); d > max {
				max = d
			}
		}
	}
	return max
}

// NearestNeighborMedian returns the median over cluster members of each
// member's distance to its nearest other member — the minmed statistic
// of the Section III-F merge conditions. NaN for fewer than two members.
func NearestNeighborMedian(c []int, dist DistFunc) float64 {
	mins := make([]float64, 0, len(c))
	for _, a := range c {
		best := math.Inf(1)
		for _, b := range c {
			if a != b && dist(a, b) < best {
				best = dist(a, b)
			}
		}
		mins = append(mins, best)
	}
	return Median(mins)
}

// Median returns the median of xs by full selection sort semantics
// (via kthSmallest), averaging the two central order statistics for
// even lengths. NaN for empty input.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return kthSmallest(xs, n/2)
	}
	return (kthSmallest(xs, n/2-1) + kthSmallest(xs, n/2)) / 2
}

// LinkSegments returns the closest pair (a ∈ ci, b ∈ cj) and its
// distance d_link, scanning all |ci|·|cj| pairs. Ties resolve to the
// first pair in iteration order, matching the production scan.
func LinkSegments(ci, cj []int, dist DistFunc) (a, b int, dLink float64) {
	dLink = math.Inf(1)
	for _, x := range ci {
		for _, y := range cj {
			if d := dist(x, y); d < dLink {
				dLink = d
				a, b = x, y
			}
		}
	}
	return a, b, dLink
}

// RhoEps returns the ε-density around a link segment: the median
// distance from link to the cluster members within ε (link itself
// excluded) and the neighborhood size; (0, 0) when the neighborhood is
// empty.
func RhoEps(link int, cluster []int, eps float64, dist DistFunc) (float64, int) {
	var within []float64
	for _, s := range cluster {
		if s == link {
			continue
		}
		if d := dist(link, s); d <= eps {
			within = append(within, d)
		}
	}
	if len(within) == 0 {
		return 0, 0
	}
	return Median(within), len(within)
}
