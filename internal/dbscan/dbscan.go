// Package dbscan implements Density-Based Spatial Clustering of
// Applications with Noise (Ester, Kriegel, Sander, Xu; KDD 1996) over a
// precomputed dissimilarity matrix.
//
// The paper clusters unique message segments whose pairwise Canberra
// dissimilarities serve as affinities; DBSCAN is chosen because it needs
// no target cluster count, makes no shape assumptions, and treats
// outliers as noise (Section III-E).
package dbscan

import (
	"errors"
	"fmt"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Matrix provides pairwise dissimilarities between n points. Dist must
// be symmetric with Dist(i,i) == 0.
type Matrix interface {
	// Len returns the number of points.
	Len() int
	// Dist returns the dissimilarity between points i and j.
	Dist(i, j int) float64
}

// Result holds a clustering outcome.
type Result struct {
	// Labels maps each point index to its cluster ID (0-based) or Noise.
	Labels []int
	// NumClusters is the number of clusters found (noise excluded).
	NumClusters int
}

// Errors returned by Cluster.
var (
	ErrEmpty     = errors.New("dbscan: empty matrix")
	ErrBadEps    = errors.New("dbscan: eps must be positive")
	ErrBadMinPts = errors.New("dbscan: minPts must be at least 1")
	// ErrNotStreaming reports a matrix without UpperStreamer: region
	// queries read streamed rows, never single pairs.
	ErrNotStreaming = errors.New("dbscan: matrix does not stream upper-triangle rows")
)

// Cluster runs DBSCAN with radius eps and density threshold minPts
// (minimum neighborhood size, including the point itself, for a point to
// be a core point). The matrix must implement UpperStreamer.
//
// The labels are those of index-order seeded expansion: clusters are
// numbered by their smallest core point, and a border point joins the
// lowest-numbered cluster among its core neighbors. They are computed
// without expansion, in one pass over the upper-triangle rows in
// ascending order, so every pair is read once and rows arrive in the
// order the tiled backend caches best. When row i has been read, every
// earlier row has reported its ε-edge to i, so i's degree — and its
// core flag — is complete. An ε-edge (j, i), j < i, is settled once
// both flags are known: core–core edges are unioned, core–border edges
// recorded for the border point. A core j reaching i before that waits
// in i's pending list, which stays shorter than minPts: once i has
// minPts − 1 neighbors below it, i is core whatever follows, and later
// edges are unioned on arrival. Memory is O(n·minPts) beyond a reused
// row buffer.
func Cluster(m Matrix, eps float64, minPts int) (*Result, error) {
	n := m.Len()
	if n == 0 {
		return nil, ErrEmpty
	}
	if eps <= 0 {
		return nil, fmt.Errorf("%w (got %v)", ErrBadEps, eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadMinPts, minPts)
	}
	us, ok := m.(UpperStreamer)
	if !ok {
		return nil, fmt.Errorf("%w (%T)", ErrNotStreaming, m)
	}

	var (
		core   = make([]bool, n)
		parent = make([]int, n) // union-find forest over core points
		// below[i] counts the ε-neighbors j < i reported so far; i is
		// surely core once below[i]+1 >= minPts.
		below = make([]int, n)
		// pending holds, per point, the core neighbors below it that
		// arrived before the point was surely core: singly linked lists
		// in flat arrays (head -1 = empty), read at the point's row.
		pendHead = make([]int, n)
		pendNext []int
		pendVal  []int
		// borders holds (non-core point, neighbor) pairs; the neighbor
		// is checked for being core once every flag is known.
		borders [][2]int
		// Row state shared with the span callback, which is built once
		// so the pass allocates no closure per row.
		i  int
		up []int // ε-neighbors j > i of row i
	)
	for p := range parent {
		parent[p] = p
		pendHead[p] = -1
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// union keeps the smaller root, so every root is the smallest
	// point of its component.
	union := func(a, b int) {
		if a, b = find(a), find(b); a != b {
			parent[max(a, b)] = min(a, b)
		}
	}
	span := func(lo int, vals []float32) {
		for o, d := range vals {
			if float64(d) <= eps {
				up = append(up, lo+o)
			}
		}
	}
	for i = 0; i < n; i++ {
		up = up[:0]
		us.StreamUpper(i, span)
		core[i] = below[i]+1+len(up) >= minPts
		for e := pendHead[i]; e >= 0; e = pendNext[e] {
			if core[i] {
				union(i, pendVal[e])
			} else {
				borders = append(borders, [2]int{i, pendVal[e]})
			}
		}
		for _, j := range up {
			below[j]++
			switch {
			case !core[i]:
				borders = append(borders, [2]int{i, j})
			case below[j]+1 >= minPts:
				union(i, j)
			default:
				pendVal = append(pendVal, i)
				pendNext = append(pendNext, pendHead[j])
				pendHead[j] = len(pendVal) - 1
			}
		}
	}

	// Roots are the smallest member of their component, so numbering
	// roots in index order numbers the clusters by their smallest core
	// point.
	labels := make([]int, n)
	cluster := 0
	for p := 0; p < n; p++ {
		switch {
		case !core[p]:
			labels[p] = Noise
		case find(p) == p:
			labels[p] = cluster
			cluster++
		default:
			labels[p] = labels[find(p)]
		}
	}
	for _, e := range borders {
		b, c := e[0], e[1]
		if core[c] && (labels[b] == Noise || labels[c] < labels[b]) {
			labels[b] = labels[c]
		}
	}
	return &Result{Labels: labels, NumClusters: cluster}, nil
}

// Clusters groups point indices by cluster label. The returned slice has
// NumClusters entries; noise points are returned separately.
func (r *Result) Clusters() (clusters [][]int, noise []int) {
	clusters = make([][]int, r.NumClusters)
	for i, lab := range r.Labels {
		if lab == Noise {
			noise = append(noise, i)
			continue
		}
		clusters[lab] = append(clusters[lab], i)
	}
	return clusters, noise
}

// LargestClusterShare returns the fraction of non-noise points contained
// in the most populous cluster, and the total count of non-noise points.
// A share of 0 is returned when everything is noise.
//
// Section III-E's guard re-runs ε selection when this share exceeds 0.6.
func (r *Result) LargestClusterShare() (share float64, nonNoise int) {
	if r.NumClusters == 0 {
		return 0, 0
	}
	counts := make([]int, r.NumClusters)
	for _, lab := range r.Labels {
		if lab != Noise {
			counts[lab]++
			nonNoise++
		}
	}
	if nonNoise == 0 {
		return 0, 0
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / float64(nonNoise), nonNoise
}

// DenseMatrix is a Matrix backed by a flat, symmetric slice. Entries
// are stored as float32: dissimilarities live in [0, 1] and heuristic
// segmentation can produce tens of thousands of unique segments, where
// float64 storage would double the footprint for no analytic benefit.
type DenseMatrix struct {
	n    int
	data []float32 // row-major n×n
}

var _ Matrix = (*DenseMatrix)(nil)

// NewDenseMatrix allocates an n×n zero matrix. It fails with
// ErrMatrixSize instead of panicking when n² elements overflow the
// representable range.
func NewDenseMatrix(n int) (*DenseMatrix, error) {
	if _, err := DenseBytes(n); err != nil {
		return nil, err
	}
	return &DenseMatrix{n: n, data: make([]float32, n*n)}, nil
}

// Len returns the number of points.
func (d *DenseMatrix) Len() int { return d.n }

// The row offsets below are hoisted out of the index expressions: the
// product i*n cannot wrap because MatrixBytes already rejected any n
// with n*n > maxElems at allocation time, and len(data) == n*n bounds
// every index.

// Dist returns the stored dissimilarity between i and j.
func (d *DenseMatrix) Dist(i, j int) float64 {
	row := i * d.n
	return float64(d.data[row+j])
}

// Set stores a symmetric dissimilarity between i and j.
func (d *DenseMatrix) Set(i, j int, v float64) {
	q := Quantize(v)
	ri, rj := i*d.n, j*d.n
	d.data[ri+j] = q
	d.data[rj+i] = q
}

// Row returns row i as a raw float32 slice, aliasing the matrix storage.
// Hot scans (k-NN selection) iterate it directly instead of paying one
// bounds-checked Dist call per entry. Callers must not mutate it.
func (d *DenseMatrix) Row(i int) []float32 {
	lo := i * d.n
	return d.data[lo : lo+d.n]
}
