package spatial

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"toporouting/internal/geom"
)

func randomPoints(n int, side float64, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	return pts
}

// clusteredPoints draws n points around five centers in a side×side box,
// each within ±spread of its center.
func clusteredPoints(n int, side, spread float64, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := randomPoints(5, side, seed+1)
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[rng.Intn(len(centers))]
		pts[i] = geom.Pt(c.X+(rng.Float64()*2-1)*spread, c.Y+(rng.Float64()*2-1)*spread)
	}
	return pts
}

// repeatPoint returns n copies of p.
func repeatPoint(p geom.Point, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = p
	}
	return pts
}

// gridCases is the input table the grid tests share: every layout the
// index must answer exactly, including the degenerate bounding boxes.
var gridCases = []struct {
	name string
	pts  []geom.Point
	cell float64
}{
	{"uniform", randomPoints(400, 10, 1), 0},
	{"uniform-range-cell", randomPoints(300, 8, 5), 0.7},
	{"clustered", clusteredPoints(400, 10, 0.2, 9), 0.1},
	{"collinear", func() []geom.Point {
		pts := make([]geom.Point, 50)
		for i := range pts {
			pts[i] = geom.Pt(1, float64(i)*0.3)
		}
		return pts
	}(), 0},
	{"coincident", repeatPoint(geom.Pt(-2.5, 8), 25), 0},
	{"one-cell", randomPoints(100, 1, 3), 100},
	{"single", []geom.Point{geom.Pt(2, 3)}, 0},
	{"empty", nil, 0},
}

// within collects ForEachWithin's visits in order.
func within(g *Grid, p geom.Point, r float64) []int {
	var out []int
	g.ForEachWithin(p, r, func(j int) { out = append(out, j) })
	return out
}

// bruteWithin is the O(n) reference for ForEachWithin.
func bruteWithin(pts []geom.Point, p geom.Point, r float64) []int {
	var out []int
	for j, q := range pts {
		if geom.Dist(p, q) <= r {
			out = append(out, j)
		}
	}
	return out
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bbox returns the bounding box of pts (the unit box for an empty set).
func bbox(pts []geom.Point) (min, max geom.Point) {
	if len(pts) == 0 {
		return geom.Pt(0, 0), geom.Pt(1, 1)
	}
	min, max = pts[0], pts[0]
	for _, p := range pts[1:] {
		min = geom.Pt(math.Min(min.X, p.X), math.Min(min.Y, p.Y))
		max = geom.Pt(math.Max(max.X, p.X), math.Max(max.Y, p.Y))
	}
	return min, max
}

// TestWithinMatchesBrute checks ForEachWithin against the brute-force
// scan on every case of the grid table, for query discs inside and around
// the bounding box.
func TestWithinMatchesBrute(t *testing.T) {
	for _, tc := range gridCases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGrid(tc.pts, tc.cell)
			min, max := bbox(tc.pts)
			span := math.Max(max.X-min.X, max.Y-min.Y) + 1
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < 200; i++ {
				p := geom.Pt(min.X-span/10+rng.Float64()*span*1.2, min.Y-span/10+rng.Float64()*span*1.2)
				r := rng.Float64() * span * 0.3
				got := within(g, p, r)
				want := bruteWithin(tc.pts, p, r)
				if !sameSet(got, want) {
					t.Fatalf("ForEachWithin(%v, %v): got %d points, want %d", p, r, len(got), len(want))
				}
			}
		})
	}
}

func TestWithinCustomCellSize(t *testing.T) {
	pts := randomPoints(200, 5, 3)
	for _, cs := range []float64{0.1, 0.5, 2, 50} {
		g := NewGrid(pts, cs)
		got := within(g, geom.Pt(2.5, 2.5), 1.3)
		want := bruteWithin(pts, geom.Pt(2.5, 2.5), 1.3)
		if !sameSet(got, want) {
			t.Fatalf("cell %v: got %d, want %d", cs, len(got), len(want))
		}
	}
}

// TestWithinFarOutside pins the two-sided clamp of the scanned cell range:
// a disc that reaches into the box from far outside, on any of its four
// sides, must report exactly the brute-force point set.
func TestWithinFarOutside(t *testing.T) {
	pts := randomPoints(150, 2, 12)
	g := NewGrid(pts, 0)
	for _, tc := range []struct {
		p geom.Point
		r float64
	}{
		{geom.Pt(10, 1), 9.5},   // reaches the right edge
		{geom.Pt(-8, 1), 8.7},   // reaches the left edge
		{geom.Pt(1, 12), 10.6},  // reaches the top edge
		{geom.Pt(1, -20), 20.7}, // reaches the bottom edge
		{geom.Pt(-8, -8), 13},   // reaches the corner
		{geom.Pt(50, 50), 10},   // misses entirely: empty
		{geom.Pt(1, 1e6), 1e6},  // far above, reaching the whole top row
	} {
		got := within(g, tc.p, tc.r)
		want := bruteWithin(pts, tc.p, tc.r)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("ForEachWithin(%v, %v): %d points, want %d", tc.p, tc.r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ForEachWithin(%v, %v): got %v, want %v", tc.p, tc.r, got, want)
			}
		}
	}
}

func TestEmptyGrid(t *testing.T) {
	g := NewGrid(nil, 0)
	if g.Len() != 0 {
		t.Error("Len != 0")
	}
	if got := within(g, geom.Pt(0, 0), 10); got != nil {
		t.Errorf("ForEachWithin on empty = %v", got)
	}
}

func TestSinglePointAndCollinear(t *testing.T) {
	g := NewGrid([]geom.Point{geom.Pt(2, 3)}, 0)
	if got := within(g, geom.Pt(2, 3), 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("single point ForEachWithin = %v", got)
	}
	// Degenerate bounding box (all points on a vertical line).
	pts := []geom.Point{geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(1, 2)}
	g2 := NewGrid(pts, 0)
	if got := within(g2, geom.Pt(1, 1), 1.5); len(got) != 3 {
		t.Errorf("collinear ForEachWithin = %v", got)
	}
}

func TestNegativeRadius(t *testing.T) {
	g := NewGrid(randomPoints(10, 1, 7), 0)
	if got := within(g, geom.Pt(0.5, 0.5), -1); got != nil {
		t.Errorf("negative radius = %v", got)
	}
}

// TestDeterministicVisitOrder checks, on every case of the grid table,
// that a query visits the same points in the same order on a fresh grid
// and on a reused grid refilled from other data first.
func TestDeterministicVisitOrder(t *testing.T) {
	var reused Grid
	for _, tc := range gridCases {
		g := NewGrid(tc.pts, tc.cell)
		reused.Fill(randomPoints(37, 3, 4), 0.2)
		reused.Fill(tc.pts, tc.cell)
		min, max := bbox(tc.pts)
		p := geom.Pt((min.X+max.X)/2, (min.Y+max.Y)/2)
		r := math.Max(max.X-min.X, max.Y-min.Y)/3 + 0.5
		a, b := within(g, p, r), within(&reused, p, r)
		if !slices.Equal(a, b) || !slices.Equal(a, within(g, p, r)) {
			t.Fatalf("%s: visit order not deterministic: %v vs %v", tc.name, a, b)
		}
	}
}

// TestGridRefillAllocs pins that refilling a grid with a point set no
// larger than one it already held allocates nothing.
func TestGridRefillAllocs(t *testing.T) {
	for _, tc := range gridCases {
		var g Grid
		g.Fill(tc.pts, tc.cell)
		if allocs := testing.AllocsPerRun(10, func() { g.Fill(tc.pts, tc.cell) }); allocs != 0 {
			t.Fatalf("%s: refill allocated %v times", tc.name, allocs)
		}
	}
}

// TestGridCellHeuristic pins the cell size chosen for cellSize ≤ 0: the
// side of a square holding one point on average, or 1 when the bounding
// box has no area.
func TestGridCellHeuristic(t *testing.T) {
	pts := randomPoints(400, 10, 1)
	min, max := bbox(pts)
	want := math.Sqrt((max.X - min.X) * (max.Y - min.Y) / 400)
	for _, cs := range []float64{0, -3} {
		if g := NewGrid(pts, cs); g.cell != want {
			t.Fatalf("cellSize %v: cell %v, want %v", cs, g.cell, want)
		}
	}
	for _, tc := range gridCases {
		if tc.name != "collinear" && tc.name != "coincident" && tc.name != "single" {
			continue
		}
		if g := NewGrid(tc.pts, 0); g.cell != 1 {
			t.Fatalf("%s: zero-area bounding box gave cell %v, want 1", tc.name, g.cell)
		}
	}
}

// TestGridCellBound pins the O(n) bucket bound: two points 2 units apart
// indexed with a 10⁻³ cell span 4·10⁶ cells of that size (32 MB of bucket
// offsets and cursors); the grid must widen its cell instead, and still
// answer exactly.
func TestGridCellBound(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 2)}
	var g Grid
	g.Fill(pts, 1e-3)
	if cells := float64(g.cols * g.rows); cells > maxCells(len(pts)) {
		t.Fatalf("%d×%d cells for 2 points, bound %v", g.cols, g.rows, maxCells(len(pts)))
	}
	if fp := g.Footprint(); fp > 256<<10 {
		t.Fatalf("footprint %d bytes for 2 points", fp)
	}
	for _, tc := range []struct {
		p    geom.Point
		r    float64
		want []int
	}{
		{geom.Pt(0, 0), 1e-3, []int{0}},
		{geom.Pt(2, 2), 1e-3, []int{1}},
		{geom.Pt(1, 1), 1.5, []int{0, 1}},
		{geom.Pt(1, 1), 1e-3, nil},
	} {
		if got := within(&g, tc.p, tc.r); !slices.Equal(got, tc.want) {
			t.Fatalf("ForEachWithin(%v, %v) = %v, want %v", tc.p, tc.r, got, tc.want)
		}
	}
}

// TestCompactGridEmpty checks that refilling a populated grid with no
// points leaves nothing behind.
func TestCompactGridEmpty(t *testing.T) {
	var cg Grid
	cg.Fill(randomPoints(30, 1, 5), 0)
	cg.Fill(nil, 0)
	called := false
	cg.ForEachWithin(geom.Pt(0, 0), 5, func(int) { called = true })
	if called || cg.Len() != 0 {
		t.Fatal("empty Grid must answer no points")
	}
}

// TestCompactGridCoincident pins the zero-area-bounding-box path: all
// points coincident collapse to a single 1×1-cell grid, radius-0 queries at
// the point see every index in ascending order, and queries elsewhere see
// none.
func TestCompactGridCoincident(t *testing.T) {
	var cg Grid
	pts := make([]geom.Point, 25)
	for i := range pts {
		pts[i] = geom.Pt(-2.5, 8)
	}
	cg.Fill(pts, 0)
	var got []int
	cg.ForEachWithin(geom.Pt(-2.5, 8), 0, func(j int) { got = append(got, j) })
	if len(got) != len(pts) || !slices.IsSorted(got) {
		t.Fatalf("coincident: got %v, want 0..%d ascending", got, len(pts)-1)
	}
	got = got[:0]
	cg.ForEachWithin(geom.Pt(0, 0), 1, func(j int) { got = append(got, j) })
	if len(got) != 0 {
		t.Fatalf("distant query returned %v", got)
	}
}

// TestCompactGridOneCell forces every point into a single cell with an
// oversized cellSize and checks queries still filter by exact distance.
func TestCompactGridOneCell(t *testing.T) {
	var cg Grid
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	cg.Fill(pts, 100) // cell far larger than the bbox: one bucket
	for q := 0; q < 25; q++ {
		p := geom.Pt(rng.Float64()*1.5-0.25, rng.Float64()*1.5-0.25)
		r := rng.Float64()
		var want []int
		for j, pj := range pts {
			if geom.Dist2(p, pj) <= r*r {
				want = append(want, j)
			}
		}
		var got []int
		cg.ForEachWithin(p, r, func(j int) { got = append(got, j) })
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: got %v, want %v", q, got, want)
		}
	}
}

// TestSoAGridEdgeCases covers the degenerate fills in sequence on one
// reused grid: an empty set, all points coincident in one cell, and a
// single point.
func TestSoAGridEdgeCases(t *testing.T) {
	var sg Grid

	sg.Fill(nil, 0)
	called := false
	sg.ForEachWithin(geom.Pt(0, 0), 5, func(int) { called = true })
	if called {
		t.Fatal("empty Grid must answer no points")
	}

	// All points in one cell: a near-coincident cluster, zero-area bbox.
	sg.Fill(repeatPoint(geom.Pt(3, 4), 20), 0)
	var got []int
	sg.ForEachWithin(geom.Pt(3, 4), 0, func(j int) { got = append(got, j) })
	if len(got) != 20 {
		t.Fatalf("coincident cluster: got %d of 20 points at r=0", len(got))
	}
	if !slices.IsSorted(got) {
		t.Fatalf("visit order not ascending: %v", got)
	}
	got = got[:0]
	sg.ForEachWithin(geom.Pt(100, 100), 1, func(j int) { got = append(got, j) })
	if len(got) != 0 {
		t.Fatalf("far query returned %v", got)
	}

	sg.Fill([]geom.Point{geom.Pt(-7, 2)}, 0)
	got = got[:0]
	sg.ForEachWithin(geom.Pt(-7, 2.5), 1, func(j int) { got = append(got, j) })
	if !slices.Equal(got, []int{0}) {
		t.Fatalf("single point: got %v", got)
	}
	sg.ForEachWithin(geom.Pt(-7, 2.5), -1, func(j int) { t.Fatal("negative radius must visit nothing") })
}
