package topology

import (
	"context"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/spatial"
)

// BuildArena is reusable backing storage for ΘALG builds: the spatial index,
// both n×k sector tables, the adjacency slabs of the Yao graph and the final
// topology N, and the distinctness-check map. A serving layer that builds
// one topology per request recycles arenas through a pool, turning the
// ~1500 per-build allocations of the naive path into a handful.
//
// A Topology built into an arena aliases the arena's memory: it is valid
// only until the next build with the same arena, and must not be retained
// (or handed to retaining code) past that point. The zero value is ready to
// use. An arena is not safe for concurrent builds.
type BuildArena struct {
	grid    spatial.Grid
	tabFlat []int32
	tabRows [][]int32
	yao     graph.Slab
	fin     graph.Slab
	seen    map[geom.Point]int
}

// The helpers below serve Build with or without an arena: on a nil
// receiver they allocate fresh storage.

// sectorTables carves the NearestOut and AdmitIn tables (n rows of k each,
// filled with -1) from the arena's flat backing.
func (a *BuildArena) sectorTables(n, k int) (nearest, admit [][]int32) {
	if a == nil {
		return newSectorTable(n, k), newSectorTable(n, k)
	}
	need := 2 * n * k
	if cap(a.tabFlat) < need {
		a.tabFlat = make([]int32, need)
	}
	flat := a.tabFlat[:need]
	for i := range flat {
		flat[i] = -1
	}
	if cap(a.tabRows) < 2*n {
		a.tabRows = make([][]int32, 2*n)
	}
	rows := a.tabRows[:2*n]
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return rows[:n], rows[n:]
}

// distinctScratch returns the cleared position-uniqueness map.
func (a *BuildArena) distinctScratch(n int) map[geom.Point]int {
	if a == nil {
		return make(map[geom.Point]int, n)
	}
	if a.seen == nil {
		a.seen = make(map[geom.Point]int, n)
	} else {
		clear(a.seen)
	}
	return a.seen
}

// graphs returns the empty Yao graph and final topology N. The slab carve
// sizes rows at 2k: N never exceeds that (Lemma 2.1 bounds its degree by
// 4π/θ = 2k) and Yao rows rarely do (out-degree ≤ k; a high in-degree row
// spills to the heap, which is correct and merely allocates).
func (a *BuildArena) graphs(n, k int) (yao, fin *graph.Graph) {
	if a == nil {
		return graph.New(n), graph.New(n)
	}
	return a.yao.NewIn(n, 2*k), a.fin.NewIn(n, 2*k)
}

// index returns the spatial index over pts with cell size r, refilling
// the arena's grid in place.
func (a *BuildArena) index(pts []geom.Point, r float64) *spatial.Grid {
	if a == nil {
		return spatial.NewGrid(pts, r)
	}
	a.grid.Fill(pts, r)
	return &a.grid
}

// Footprint approximates the arena's retained backing size in bytes, so
// pools can drop arenas that grew serving an outsized request instead of
// retaining them forever.
func (a *BuildArena) Footprint() int {
	return 4*cap(a.tabFlat) + 24*cap(a.tabRows) +
		a.yao.Footprint() + a.fin.Footprint() +
		a.grid.Footprint() + 48*len(a.seen)
}

// BuildThetaArena is Build with a row plan of workers workers (≤ 0 stays
// sequential) building into ar. It is kept, with this signature, for the
// benchmark module, which calls it directly. The returned Topology aliases
// the arena (see BuildArena): encode or copy out everything needed before
// reusing ar.
func BuildThetaArena(ctx context.Context, pts []geom.Point, cfg Config, workers int, ar *BuildArena) (*Topology, error) {
	return Build(ctx, pts, cfg, Plan{Workers: workers, Arena: ar})
}
