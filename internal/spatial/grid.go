// Package spatial provides a uniform-grid spatial index over a fixed set of
// 2-D points. It turns the O(n²) neighbourhood scans of the transmission
// graph builder, the proximity-graph baselines and the interference-set
// computation into O(n · avg-bucket) scans, which is what makes the large-n
// experiment sweeps feasible.
package spatial

import (
	"math"

	"toporouting/internal/geom"
)

// Grid is a static uniform-grid index stored in flat CSR arrays: bucket
// offsets plus one contiguous index slice, filled by a counting sort. A
// zero Grid is empty; (re)populate it with Fill, which reuses the backing
// arrays, so steady-state refills allocate nothing. NewGrid serves
// one-shot callers.
//
// Visit order is deterministic: bucket-major, ascending point index within
// each bucket.
type Grid struct {
	pts   []geom.Point
	cell  float64
	min   geom.Point
	cols  int
	rows  int
	start []int32 // bucket b occupies idx[start[b]:start[b+1]]
	idx   []int32
	cur   []int32 // fill cursors, retained as scratch
}

// NewGrid indexes pts with the given cell size; see Fill.
func NewGrid(pts []geom.Point, cellSize float64) *Grid {
	g := new(Grid)
	g.Fill(pts, cellSize)
	return g
}

// maxCells bounds the bucket count of an n-point grid. Without it the
// count is (spread/cell)², independent of n: two points 20 units apart
// with a 10⁻³ cell would ask for 4·10⁸ buckets. ForEachWithin filters by
// exact distance, so any cell size answers queries correctly; widening
// the cell only trades empty buckets for fuller ones. The constant term
// (128 KiB of offsets) leaves small sparse inputs on their requested cell.
func maxCells(n int) float64 { return 4*float64(n) + 1<<14 }

// Fill (re)indexes pts with the given cell size, reusing the grid's
// backing arrays. A non-positive cellSize is replaced by a heuristic
// (bounding-box area / n, clamped). The cell is doubled until the bucket
// count is within maxCells. The grid keeps a reference to pts; callers
// must not mutate the slice while the grid is in use.
func (g *Grid) Fill(pts []geom.Point, cellSize float64) {
	g.pts = pts
	if len(pts) == 0 {
		g.cell = 1
		g.cols, g.rows = 0, 0
		return
	}
	min, max := pts[0], pts[0]
	for _, p := range pts[1:] {
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	w, h := max.X-min.X, max.Y-min.Y
	if cellSize <= 0 {
		area := w * h
		if area <= 0 {
			cellSize = 1
		} else {
			cellSize = math.Sqrt(area / float64(len(pts)))
		}
		if cellSize <= 0 {
			cellSize = 1
		}
	}
	for (math.Floor(w/cellSize)+1)*(math.Floor(h/cellSize)+1) > maxCells(len(pts)) {
		cellSize *= 2
	}
	g.cell = cellSize
	g.min = min
	g.cols = int(w/cellSize) + 1
	g.rows = int(h/cellSize) + 1

	cells := g.cols * g.rows
	g.start = growInt32(g.start, cells+1)
	g.cur = growInt32(g.cur, cells)
	g.idx = growInt32(g.idx, len(pts))
	counts := g.cur
	clear(counts)
	for _, p := range pts {
		counts[g.cellIndex(p)]++
	}
	g.start[0] = 0
	for c := 0; c < cells; c++ {
		g.start[c+1] = g.start[c] + counts[c]
		counts[c] = g.start[c] // reuse as fill cursor
	}
	for i, p := range pts {
		c := g.cellIndex(p)
		g.idx[counts[c]] = int32(i)
		counts[c]++
	}
}

// growInt32 returns a slice of exactly length n, reusing s's backing array
// when it is large enough.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// Footprint returns the grid's retained backing size in bytes (excluding
// the caller-owned point slice), for pool retention caps.
func (g *Grid) Footprint() int {
	return 4 * (cap(g.start) + cap(g.idx) + cap(g.cur))
}

func (g *Grid) cellIndex(p geom.Point) int {
	col := clampCell((p.X-g.min.X)/g.cell, g.cols)
	row := clampCell((p.Y-g.min.Y)/g.cell, g.rows)
	return row*g.cols + col
}

// ForEachWithin calls fn(j) for every indexed point j with |p, pts[j]| ≤ r,
// in deterministic order (bucket-major, ascending index within buckets).
// It is safe for concurrent use by multiple goroutines once filled.
func (g *Grid) ForEachWithin(p geom.Point, r float64, fn func(j int)) {
	if g.cols == 0 || r < 0 {
		return
	}
	r2 := r * r
	// Clamp both ends of the cell range into [0, cols)×[0, rows): a query
	// disc lying outside the bounding box then scans the nearest boundary
	// cells (the distance filter rejects what is out of reach) instead of
	// an inverted, silently empty range.
	c0 := clampCell((p.X-r-g.min.X)/g.cell, g.cols)
	c1 := clampCell((p.X+r-g.min.X)/g.cell, g.cols)
	r0 := clampCell((p.Y-r-g.min.Y)/g.cell, g.rows)
	r1 := clampCell((p.Y+r-g.min.Y)/g.cell, g.rows)
	for row := r0; row <= r1; row++ {
		base := row * g.cols
		for col := c0; col <= c1; col++ {
			b := base + col
			for _, j := range g.idx[g.start[b]:g.start[b+1]] {
				if geom.Dist2(p, g.pts[j]) <= r2 {
					fn(int(j))
				}
			}
		}
	}
}

// clampCell maps a cell coordinate, still in float64 cell units, to its
// column or row in [0, n). Clamping before the integer conversion keeps
// far-away coordinates from overflowing it.
func clampCell(c float64, n int) int {
	if c < 0 {
		return 0
	}
	if c >= float64(n) {
		return n - 1
	}
	return int(c)
}
