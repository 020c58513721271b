package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"toporouting/internal/cluster"
	"toporouting/internal/geom"
	"toporouting/internal/interference"
	"toporouting/internal/mac"
	"toporouting/internal/routing"
	"toporouting/internal/server"
	"toporouting/internal/session"
	"toporouting/internal/sim"
	"toporouting/internal/telemetry"
	"toporouting/internal/topocache"
	"toporouting/internal/topology"
	"toporouting/internal/unitdisk"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric, in report order. A layer that a
// workload never calls reports 0.
var perLayer = []layerMetric{
	{"unitdisk.range_default_ms", "ms"},
	{"topology.build_ms", "ms"},
	{"topology.phase1_ms", "ms"},
	{"topology.phase2_ms", "ms"},
	{"server.handle_ms", "ms"},
	{"server.self_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"server.queue_wait_p50_ms", "ms"},
	{"topocache.hit_ratio", "ratio"},
	{"topocache.insert_us", "us"},
	{"session.apply_us", "us"},
	{"topology.repair_touched", "count"},
	{"cluster.mirror_overhead_us", "us"},
	{"cluster.replica_read_share", "ratio"},
	{"cluster.replica_lag_gens", "count"},
	{"session.encode_since_us", "us"},
	{"session.create_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"mac.step_us", "us"},
	{"routing.step_us", "us"},
	{"telemetry.scrape_ms", "ms"},
	{"telemetry.histogram_samples", "count"},
	{"telemetry.snapshot_ms", "ms"},
	{"runtime.alloc_kib_per_op", "KiB"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"trace.unattributed_share", "ratio"},
}

// replayOps is how many of client 0's timed ops each workload replays
// in-process.
var replayOps = map[string]int{"topology-cold": 32, "session-churn": 32, "simulate": 12}

type replayResult struct {
	spans *spanLog
	layer map[string]float64 // by per-layer metric name
	// handleP50 is the in-process handler p50 that http.overhead_ms
	// subtracts from the end-to-end p50 of the same request: the op's, or
	// the read's when readOverhead is set.
	handleP50    float64
	readOverhead bool
	err          error
}

const msPerUS = 1e-3

// replay runs the workload's in-process replay and folds its spans.
func replay(w workload) (*replayResult, error) {
	tr := &replayResult{spans: newSpanLog(), layer: map[string]float64{}}
	if err := w.replay(tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// inProcessServer builds a server configured like the daemon the
// workload launches.
func inProcessServer(tel *telemetry.Telemetry, sessions bool) *server.Server {
	cfg := server.Config{
		Telemetry: tel,
		Tracer:    telemetry.NewTracer(tel, telemetry.NewTraceRing(32, 64)),
	}
	if sessions {
		cfg.Shards, cfg.Replicas = 2, 1
		cfg.Sessions = session.Config{EventRate: -1}
	}
	return server.New(cfg)
}

func shutdown(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// duplexRecorder lets the NDJSON events handler enable full duplex, which
// a plain ResponseRecorder refuses.
type duplexRecorder struct{ *httptest.ResponseRecorder }

func (duplexRecorder) EnableFullDuplex() error { return nil }

// serve runs one request through h in-process.
func serve(h http.Handler, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(duplexRecorder{rec}, req)
	return rec
}

// phaseSum is the total of a phase timer's samples so far; the difference
// across a call is that call's time in the phase.
func phaseSum(tel *telemetry.Telemetry, phase string) time.Duration {
	s := tel.Histogram("phase." + phase + ".ms").Summary()
	return time.Duration(s.Mean * float64(s.N) * float64(time.Millisecond))
}

// derivePhases records the ΘALG phase timers of opTel as children of the
// build span b.
func derivePhases(l *spanLog, b int, opTel *telemetry.Telemetry) {
	l.derive(b, "topology.phase1", "telemetry", phaseSum(opTel, "topology.phase1"))
	l.derive(b, "topology.phase2", "telemetry", phaseSum(opTel, "topology.phase2"))
}

// probeTelemetry times a /metrics render and a Snapshot of tel, as the
// daemon's scrape and simulate responses do.
func probeTelemetry(l *spanLog, parent, op int, tel *telemetry.Telemetry) {
	l.call("telemetry.WritePrometheus", parent, op, func() { _ = telemetry.WritePrometheus(io.Discard, tel) })
	l.call("telemetry.Snapshot", parent, op, func() { _ = tel.Snapshot() })
}

// foldHandle folds the spans named name: their median duration
// (server.handle_ms), median self time (server.self_ms) and median share
// of self time (trace.unattributed_share).
func (tr *replayResult) foldHandle(name string, keep func(int) bool) {
	self := tr.spans.self()
	var selfMS, share, handle []float64
	for _, s := range tr.spans.spans {
		if s.Name != name || !keep(s.Op) {
			continue
		}
		d := float64(s.dur()) / float64(time.Millisecond)
		sm := float64(self[s.ID]) / float64(time.Millisecond)
		handle = append(handle, d)
		selfMS = append(selfMS, sm)
		share = append(share, sm/d)
	}
	tr.layer["server.handle_ms"] = median(handle)
	tr.layer["server.self_ms"] = median(selfMS)
	tr.layer["trace.unattributed_share"] = median(share)
	tr.handleP50 = median(handle)
}

func (tr *replayResult) fail(format string, args ...any) {
	if tr.err == nil {
		tr.err = fmt.Errorf(format, args...)
	}
}

// ---- topology-cold ----------------------------------------------------

func (w *topologyCold) replay(tr *replayResult) error {
	l := tr.spans
	ctx := context.Background()
	tel := telemetry.New(nil)
	srv := inProcessServer(tel, false)
	defer shutdown(srv)
	h := srv.Handler()
	cache := topocache.New(64<<20, nil)
	var arena topology.BuildArena
	first, count := w.warmup(), replayOps[w.name()]
	all := func(int) bool { return true }
	for j := 0; j < count; j++ {
		k := first + j
		pts := geomPoints(w.sets[0][k])
		root := l.start("op", 0, k)

		var d float64
		rangeDur := l.call("unitdisk.CriticalRange", root, k, func() { d = unitdisk.CriticalRange(pts) * rangeSlack })
		opTel := telemetry.New(nil)
		b := l.start("topology.BuildThetaArena", root, k)
		if _, err := topology.BuildThetaArena(ctx, pts, topology.Config{Range: d, Telemetry: opTel}, 0, &arena); err != nil {
			return err
		}
		l.end(b)
		derivePhases(l, b, opTel)

		p1, p2 := phaseSum(tel, "topology.phase1"), phaseSum(tel, "topology.phase2")
		hs := l.start("server.ServeHTTP", root, k)
		rec := serve(h, "POST", "/v1/topology", w.bodies[0][k], nil)
		l.end(hs)
		var got topologyView
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil || got.Range != d {
			tr.fail("replay op %d: in-process handler answered %d with range %v, want %v", k, rec.Code, got.Range, d)
		}
		key := topocache.Key(sha256.Sum256(w.bodies[0][k]))
		resp := rec.Body.Bytes()
		insertDur := l.call("topocache.GetOrBuild", root, k, func() {
			_, _, _ = cache.GetOrBuild(ctx, key, func() (*topocache.Entry, error) {
				return &topocache.Entry{Body: resp, ETag: topocache.ETagFor(key)}, nil
			})
		})
		l.derive(hs, "unitdisk.CriticalRange", "direct", rangeDur)
		l.derive(hs, "topology.phase1", "telemetry", phaseSum(tel, "topology.phase1")-p1)
		l.derive(hs, "topology.phase2", "telemetry", phaseSum(tel, "topology.phase2")-p2)
		l.derive(hs, "topocache.GetOrBuild", "direct", insertDur)
		if scrapeAfter(j, count) {
			probeTelemetry(l, root, k, tel)
		}
		l.end(root)
	}
	tr.layer["unitdisk.range_default_ms"] = median(l.byName("unitdisk.CriticalRange", all))
	tr.layer["topology.build_ms"] = median(l.byName("topology.BuildThetaArena", all))
	tr.layer["topology.phase1_ms"] = median(childrenOf(l, "topology.BuildThetaArena", "topology.phase1"))
	tr.layer["topology.phase2_ms"] = median(childrenOf(l, "topology.BuildThetaArena", "topology.phase2"))
	tr.layer["topocache.insert_us"] = median(l.byName("topocache.GetOrBuild", all)) / msPerUS
	tr.layer["telemetry.scrape_ms"] = median(l.byName("telemetry.WritePrometheus", all))
	tr.layer["telemetry.snapshot_ms"] = median(l.byName("telemetry.Snapshot", all))
	tr.foldHandle("server.ServeHTTP", all)
	return nil
}

// childrenOf returns the durations (ms) of the child spans named child
// whose parent is named parent.
func childrenOf(l *spanLog, parent, child string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == child && s.Parent != 0 && l.spans[s.Parent-1].Name == parent {
			out = append(out, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return out
}

// ---- session-churn ----------------------------------------------------

func decodeBatch(batch []byte) ([]session.Event, error) {
	dec := json.NewDecoder(bytes.NewReader(batch))
	var evs []session.Event
	for {
		var ev session.Event
		if err := dec.Decode(&ev); errors.Is(err, io.EOF) {
			return evs, nil
		} else if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
}

func (w *sessionChurn) replay(tr *replayResult) error {
	l := tr.spans
	ctx := context.Background()
	plan := w.plans[0]
	const tenant = "bench-0"
	pts := geomPoints(plan.initial)
	setup := -1 // op index of set-up spans

	l.call("unitdisk.CriticalRange", 0, setup, func() { _ = unitdisk.CriticalRange(pts) })
	newCluster := func(replicas int, tel *telemetry.Telemetry) *cluster.Cluster {
		return cluster.New(cluster.Config{Shards: 2, Replicas: replicas, Session: session.Config{EventRate: -1, Telemetry: tel}})
	}
	telA := telemetry.New(nil)
	ca := newCluster(1, telA)
	defer ca.Close()
	var sa, sb *session.Session
	var err error
	cs := l.start("cluster.Create", 0, setup)
	if sa, err = ca.Create(ctx, tenant, pts, session.BuildSpec{}); err != nil {
		return err
	}
	l.end(cs)
	derivePhases(l, cs, telA)
	cb := newCluster(0, nil)
	defer cb.Close()
	if sb, err = cb.Create(ctx, tenant, pts, session.BuildSpec{}); err != nil {
		return err
	}

	tel := telemetry.New(nil)
	srv := inProcessServer(tel, true)
	defer shutdown(srv)
	h := srv.Handler()
	hdr := map[string]string{"X-Tenant-ID": tenant}
	rec := serve(h, "POST", "/v1/sessions", plan.create, hdr)
	var created struct {
		ID string `json:"id"`
	}
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
		return fmt.Errorf("in-process session create: status %d", rec.Code)
	}
	path := "/v1/sessions/" + created.ID

	first, count := w.warmup(), replayOps[w.name()]
	timed := func(op int) bool { return op >= first }
	var touched []float64
	var buf bytes.Buffer
	genA, genS := int64(0), int64(0)
	for k := 0; k < first+count; k++ {
		evs, err := decodeBatch(plan.batches[k])
		if err != nil {
			return err
		}
		root := l.start("op", 0, k)
		for _, ev := range evs {
			var ra, rb session.ApplyResult
			var ea, eb error
			l.call("session.Apply", root, k, func() { ra, ea = sa.Apply(ctx, ev) })
			l.call("session.Apply.replicas0", root, k, func() { rb, eb = sb.Apply(ctx, ev) })
			if ea != nil || eb != nil || ra.Err != "" || rb.Err != "" {
				tr.fail("replay event %s: %v %v %s %s", ev.Op, ea, eb, ra.Err, rb.Err)
			}
			if timed(k) {
				touched = append(touched, float64(ra.Touched))
			}
		}
		buf.Reset()
		l.call("cluster.EncodeSince", root, k, func() {
			_, genA, _, err = ca.EncodeSince(ctx, tenant, sa.ID, genA, &buf)
		})
		if err != nil {
			return err
		}
		repair := phaseSum(tel, "topology.repair")
		hs := l.start("server.ServeHTTP", root, k)
		rec := serve(h, "POST", path+"/events", plan.batches[k], hdr)
		l.end(hs)
		if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
			tr.fail("replay op %d: in-process events answered %d: %.200s", k, rec.Code, rec.Body.String())
		}
		l.derive(hs, "topology.repair", "telemetry", phaseSum(tel, "topology.repair")-repair)
		rhdr := map[string]string{"X-Tenant-ID": tenant, "If-None-Match": strconv.FormatInt(genS, 10)}
		var rrec *httptest.ResponseRecorder
		l.call("server.ServeHTTP.read", root, k, func() { rrec = serve(h, "GET", path, nil, rhdr) })
		if g, err := strconv.ParseInt(rrec.Header().Get("ETag"), 10, 64); err == nil {
			genS = g
		}
		if timed(k) && scrapeAfter(k-first, count) {
			probeTelemetry(l, root, k, tel)
		}
		l.end(root)
	}
	wantGen := int64((first + count) * batchSize)
	ga, errA := sa.Gen(ctx)
	gb, errB := sb.Gen(ctx)
	if errA != nil || errB != nil || ga != wantGen || gb != wantGen {
		tr.fail("replay: sessions at generations %d and %d, want %d", ga, gb, wantGen)
	}
	all := func(int) bool { return true }
	isSetup := func(op int) bool { return op == setup }
	tr.layer["unitdisk.range_default_ms"] = median(l.byName("unitdisk.CriticalRange", isSetup))
	tr.layer["session.create_ms"] = median(l.byName("cluster.Create", isSetup))
	tr.layer["topology.phase1_ms"] = median(childrenOf(l, "cluster.Create", "topology.phase1"))
	tr.layer["topology.phase2_ms"] = median(childrenOf(l, "cluster.Create", "topology.phase2"))
	tr.layer["topology.build_ms"] = tr.layer["topology.phase1_ms"] + tr.layer["topology.phase2_ms"]
	applyA := median(l.byName("session.Apply", timed))
	applyB := median(l.byName("session.Apply.replicas0", timed))
	tr.layer["session.apply_us"] = applyA / msPerUS
	tr.layer["cluster.mirror_overhead_us"] = (applyA - applyB) / msPerUS
	tr.layer["topology.repair_touched"] = mean(touched)
	tr.layer["session.encode_since_us"] = median(l.byName("cluster.EncodeSince", timed)) / msPerUS
	tr.layer["telemetry.scrape_ms"] = median(l.byName("telemetry.WritePrometheus", all))
	tr.layer["telemetry.snapshot_ms"] = median(l.byName("telemetry.Snapshot", all))
	tr.foldHandle("server.ServeHTTP", timed)
	// Reads are where loopback HTTP is most of the cost on this workload.
	tr.handleP50 = median(l.byName("server.ServeHTTP.read", timed))
	tr.readOverhead = true
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ---- simulate ---------------------------------------------------------

// simConfig is the sim.Config that toporouting.Simulate derives from
// simOptions.
func (w *simulateWL) simConfig(pts []geom.Point, simSeed int64, tel *telemetry.Telemetry) sim.Config {
	sinks := w.sinks(len(pts))
	return sim.Config{
		Points:    pts,
		Range:     w.spec.Range,
		MAC:       sim.MACRandom,
		Router:    routing.Params{BufferSize: 100},
		Inject:    sim.SinksInjector(len(pts), sinks, w.spec.Rate, w.spec.Steps),
		Steps:     w.spec.Steps,
		Seed:      simSeed,
		Telemetry: tel,
	}
}

// stepLoop drives the random-MAC simulation of cfg layer by layer — one
// ΘALG build, then RandomMAC.Step and Balancer.Step per step — in the
// order sim.Run calls them, recording a span around each call.
func stepLoop(l *spanLog, parent, op int, cfg sim.Config) (delivered, dropped int64, queued int, err error) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pts := append([]geom.Point(nil), cfg.Points...)
	router := routing.New(len(pts), cfg.Router)
	model := interference.NewModel(interference.DefaultDelta)
	opTel := telemetry.New(nil)
	b := l.start("topology.BuildThetaContext", parent, op)
	top, err := topology.BuildThetaContext(ctx, pts, topology.Config{Range: cfg.Range, Telemetry: opTel}, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	l.end(b)
	derivePhases(l, b, opTel)
	rmac := mac.NewRandomMAC(pts, top.N.Edges(), model, top.EnergyCost(2), rng)
	for step := 0; step < cfg.Steps; step++ {
		var offered []routing.ActiveEdge
		l.call("mac.RandomMAC.Step", parent, op, func() { offered, _ = rmac.Step() })
		inj := cfg.Inject(step, rng)
		l.call("routing.Balancer.Step", parent, op, func() { router.Step(offered, inj) })
	}
	return router.Delivered(), router.Dropped(), router.TotalQueued(), nil
}

func (w *simulateWL) replay(tr *replayResult) error {
	l := tr.spans
	tel := telemetry.New(nil)
	srv := inProcessServer(tel, false)
	defer shutdown(srv)
	h := srv.Handler()
	first, count := w.warmup(), replayOps[w.name()]
	all := func(int) bool { return true }
	for j := 0; j < count; j++ {
		k := first + j
		pts := geomPoints(w.sets[0][k])
		root := l.start("op", 0, k)
		cfg := w.simConfig(pts, w.seeds[0][k], telemetry.New(nil))
		var res sim.Result
		l.call("sim.Run", root, k, func() { res = sim.Run(cfg) })
		cfg.Telemetry = nil
		del, drop, q, err := stepLoop(l, root, k, cfg)
		if err != nil {
			return err
		}
		if del != res.Delivered || drop != res.Dropped || q != res.Queued {
			tr.fail("replay op %d: step loop %d/%d/%d, sim.Run %d/%d/%d", k, del, drop, q, res.Delivered, res.Dropped, res.Queued)
		}
		run := phaseSum(tel, "sim.run")
		hs := l.start("server.ServeHTTP", root, k)
		rec := serve(h, "POST", "/v1/simulate", w.bodies[0][k], nil)
		l.end(hs)
		if rec.Code != http.StatusOK {
			tr.fail("replay op %d: in-process simulate answered %d", k, rec.Code)
		}
		l.derive(hs, "sim.run", "telemetry", phaseSum(tel, "sim.run")-run)
		// Every simulate response embeds a Snapshot of the daemon-wide
		// Telemetry; time one taken right after the handler.
		snap := l.call("telemetry.Snapshot", root, k, func() { _ = tel.Snapshot() })
		l.derive(hs, "telemetry.Snapshot", "direct", snap)
		if scrapeAfter(j, count) {
			l.call("telemetry.WritePrometheus", root, k, func() { _ = telemetry.WritePrometheus(io.Discard, tel) })
		}
		l.end(root)
	}
	steps := float64(w.spec.Steps)
	perStep := func(name string) float64 {
		var perOp []float64
		for j := 0; j < count; j++ {
			k := first + j
			perOp = append(perOp, sum(l.byName(name, func(op int) bool { return op == k }))/steps)
		}
		return median(perOp) / msPerUS
	}
	tr.layer["sim.run_ms"] = median(l.byName("sim.Run", all))
	tr.layer["mac.step_us"] = perStep("mac.RandomMAC.Step")
	tr.layer["routing.step_us"] = perStep("routing.Balancer.Step")
	tr.layer["topology.build_ms"] = median(l.byName("topology.BuildThetaContext", all))
	tr.layer["topology.phase1_ms"] = median(childrenOf(l, "topology.BuildThetaContext", "topology.phase1"))
	tr.layer["topology.phase2_ms"] = median(childrenOf(l, "topology.BuildThetaContext", "topology.phase2"))
	tr.layer["telemetry.scrape_ms"] = median(l.byName("telemetry.WritePrometheus", all))
	tr.layer["telemetry.snapshot_ms"] = median(l.byName("telemetry.Snapshot", all))
	tr.foldHandle("server.ServeHTTP", all)
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
