package topology

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/telemetry"
)

// Plan says how Build schedules ΘALG's per-node rows and where their
// storage comes from. ΘALG is local (Section 2.1): a node's phase-1 row
// depends only on its D-ball and its phase-2 row only on its 2D-ball, so
// every plan yields the same sector tables and graphs, adjacency order
// included; plans differ only in time and memory.
type Plan struct {
	// Workers is the worker-pool size. ≤ 0 selects the default: one worker
	// (a sequential build) for a row build, GOMAXPROCS for a tiled build,
	// which exists for inputs large enough to want every core. Counts
	// above the number of rows or tiles are clamped.
	Workers int
	// Tiles selects the build. 0 runs the row build: one spatial index
	// over all nodes, phase 1 fanned out over Workers. Tiles > 0 runs the
	// tile-sharded build over a Tiles×Tiles partition of the bounding box:
	// each tile computes its owned rows from its nodes plus a 2D halo, so
	// peak memory is the global tables plus one cache-sized working set
	// per worker, which is what admits million-node builds. AutoTiles
	// (any Tiles < 0) picks the tile count from n and the range.
	Tiles int
	// Arena, when non-nil, supplies reusable storage for the spatial
	// index, the sector tables, both graphs and the distinctness check.
	// The result then aliases the arena; see BuildArena.
	Arena *BuildArena
}

// AutoTiles is the Plan.Tiles value selecting a tiled build whose tile
// count tilesFor derives from the node count and the transmission range.
const AutoTiles = -1

// Build runs ΘALG on pts under plan and returns the topology. It panics on
// an invalid configuration, like BuildTheta, and returns (nil, ctx.Err())
// promptly after cancellation: every loop checks ctx between row batches.
func Build(ctx context.Context, pts []geom.Point, cfg Config, plan Plan) (*Topology, error) {
	t := prepare(pts, cfg, plan.Arena)
	n := len(pts)
	t.NearestOut, t.AdmitIn = plan.Arena.sectorTables(n, t.Sectors.Count())
	tel := t.Cfg.Telemetry
	stopBuild := tel.StartPhase("topology.build")
	ctx, span := telemetry.StartChild(ctx, "topology.build")
	span.SetAttr("n", float64(n))

	var err error
	workers, tiles := plan.Workers, 0
	if plan.Tiles != 0 {
		tl := newTiling(pts, 1)
		tiles = plan.Tiles
		if tiles < 0 {
			tiles = tilesFor(n, tl.tw, tl.th, t.Cfg.Range)
		}
		if tiles > 1 {
			tl = newTiling(pts, tiles)
		}
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = min(workers, tiles*tiles)
		span.SetAttr("tiles", float64(tiles))
		err = t.buildTiled(ctx, tl, workers, plan.Arena)
	} else {
		workers = max(1, min(workers, n))
		err = t.buildRows(ctx, workers, plan.Arena)
	}
	span.SetAttr("workers", float64(workers))
	stopBuild()
	if err != nil {
		span.End()
		return nil, err
	}
	span.SetAttr("edges", float64(t.N.NumEdges()))
	span.SetAttr("yao_edges", float64(t.Yao.NumEdges()))
	span.SetAttr("max_degree", float64(t.N.MaxDegree()))
	span.End()
	if tel.Enabled() {
		tel.Gauge("topology.build_workers").Set(float64(workers))
		if tiles > 0 {
			tel.Gauge("topology.tiles").Set(float64(tiles))
		}
	}
	return t, nil
}

// prepare is every builder's prelude: config defaults, the range,
// distinct-position and orientation checks, and the Topology shell the
// builder fills with sector tables. A non-nil ar lends the distinctness
// check its recycled map.
func prepare(pts []geom.Point, cfg Config, ar *BuildArena) *Topology {
	cfg = cfg.withDefaults()
	if cfg.Range <= 0 {
		panic(fmt.Sprintf("topology: non-positive range %v", cfg.Range))
	}
	sectors := geom.NewSectors(cfg.Theta)
	checkDistinctIn(pts, ar.distinctScratch(len(pts)))
	if cfg.Orientations != nil && len(cfg.Orientations) != len(pts) {
		panic(fmt.Sprintf("topology: %d orientations for %d points", len(cfg.Orientations), len(pts)))
	}
	return &Topology{Pts: pts, Cfg: cfg, Sectors: sectors}
}

// stitch is every builder's epilogue, run once the sector tables are
// complete: it materializes the Yao graph and the final topology N as the
// undirected closures of the tables, then records the build counters,
// gauges and trace event. Edge sets and adjacency order therefore depend
// on the tables alone, never on how they were scheduled. tiles > 0 labels
// a tiled build in the trace.
func (t *Topology) stitch(ar *BuildArena, tiles int) {
	n := len(t.Pts)
	t.Yao, t.N = ar.graphs(n, t.Sectors.Count())
	closure(t.Yao, t.NearestOut)
	closure(t.N, t.AdmitIn)
	tel := t.Cfg.Telemetry
	if tel.Enabled() {
		tel.Counter("topology.builds").Inc()
		tel.Gauge("topology.edges").Set(float64(t.N.NumEdges()))
		tel.Gauge("topology.yao_edges").Set(float64(t.Yao.NumEdges()))
		tel.Gauge("topology.max_degree").Set(float64(t.N.MaxDegree()))
	}
	if tel.Tracing() {
		ev := telemetry.Event{Layer: "topology", Kind: "build", Fields: map[string]float64{
			"n":          float64(n),
			"edges":      float64(t.N.NumEdges()),
			"yao_edges":  float64(t.Yao.NumEdges()),
			"max_degree": float64(t.N.MaxDegree()),
		}}
		if tiles > 0 {
			ev.Name = "tiled"
			ev.Fields["tiles"] = float64(tiles)
		}
		tel.Emit(ev)
	}
}

// closure adds an edge to g for every entry of the sector table tab.
func closure(g *graph.Graph, tab [][]int32) {
	for u, row := range tab {
		for _, v := range row {
			if v >= 0 {
				g.AddEdge(u, int(v))
			}
		}
	}
}

// buildRows is the row build: one spatial index over all nodes, phase 1
// fanned out over workers that own disjoint node ranges (each row reads
// only immutable positions), then the sequential phase-2 admission scatter
// and the stitch.
func (t *Topology) buildRows(ctx context.Context, workers int, ar *BuildArena) error {
	tel := t.Cfg.Telemetry
	n := len(t.Pts)

	// Phase 1: every node selects, in each of its sectors, the nearest
	// node within transmission range. This is purely local given the
	// positions of in-range nodes (round 1 of the distributed protocol).
	stopPhase1 := tel.StartPhase("topology.phase1")
	_, spanP1 := telemetry.StartChild(ctx, "topology.phase1")
	idx := ar.index(t.Pts, t.Cfg.Range)
	if workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				sc := phase1Scanner{t: t}
				sc.scan(ctx, lo, hi, idx)
			}(lo, hi)
		}
		wg.Wait()
	} else {
		sc := phase1Scanner{t: t}
		sc.scan(ctx, 0, n, idx)
	}
	stopPhase1()
	spanP1.End()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase 2: every node u admits, per sector, only the nearest node w
	// that selected u (u ∈ N(w)). In the distributed protocol this is the
	// neighborhood round (w tells u "I selected you") followed by the
	// connection round (u answers its per-sector winners).
	stopPhase2 := tel.StartPhase("topology.phase2")
	_, spanP2 := telemetry.StartChild(ctx, "topology.phase2")
	defer spanP2.End()
	defer stopPhase2()
	for w := 0; w < n; w++ {
		if w%cancelStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		for _, v := range t.NearestOut[w] {
			if v < 0 {
				continue
			}
			// w selected v, so w is an in-neighbor candidate of v in
			// sector S(v, w).
			s := t.SectorOf(int(v), w)
			cur := t.AdmitIn[v][s]
			if cur < 0 || closer(t.Pts, int(v), w, int(cur)) {
				t.AdmitIn[v][s] = int32(w)
			}
		}
	}
	t.stitch(ar, 0)
	return nil
}
