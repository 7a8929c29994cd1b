package core

import (
	"context"
	"testing"

	"protoclust/internal/dissim"
	"protoclust/internal/protocols"
	"protoclust/internal/segment"
	"protoclust/internal/segment/nemesys"
)

// TestTiledAnalysisTilePasses bounds how often one analysis recomputes
// the tiles of a matrix that does not fit its budget: 256 KiB holds
// about a third of a dns-200 NEMESYS pool's condensed matrix, so every
// pass over the matrix recomputes most tiles. The k-NN table, one
// DBSCAN pass per clustering run (two when the 60 % guard fires) and
// the merge pass each read rows in ascending order; the bound of 12
// tile grids per analysis leaves room for those and for the merge's
// single-pair density reads, but not for region queries in expansion
// order, which recomputed each tile 54 times per analysis on average.
func TestTiledAnalysisTilePasses(t *testing.T) {
	const maxPasses = 12
	p := DefaultParams()
	p.MemoryBudget = 256 << 10
	for seed := int64(1); seed <= 10; seed++ {
		tr, err := protocols.Generate("dns", 200, seed)
		if err != nil {
			t.Fatal(err)
		}
		segs, err := segment.Run(context.Background(), &nemesys.Segmenter{}, tr.Deduplicate())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ClusterSegments(segs, p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if b := res.Matrix.Backend(); b != dissim.BackendTiled {
			t.Fatalf("seed %d: backend %s, want %s", seed, b, dissim.BackendTiled)
		}
		st := res.Matrix.TileStats()
		t.Logf("seed %d: n=%d tiles=%d computed=%d (%.1f per tile) guard=%v",
			seed, res.Pool.Size(), st.Tiles, st.Computed, float64(st.Computed)/float64(st.Tiles), res.Reconfigured)
		if st.Computed > maxPasses*int64(st.Tiles) {
			t.Errorf("seed %d: computed %d tiles, more than %d× the %d-tile grid",
				seed, st.Computed, maxPasses, st.Tiles)
		}
	}
}
