package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"toporouting"
	"toporouting/internal/geom"
	"toporouting/internal/topology"
	"toporouting/internal/unitdisk"
)

// rangeSlack is the daemon's default-range factor over the critical range
// (toporouting.Options and session create both use 1.3).
const rangeSlack = 1.3

func workloadByName(name string) (workload, error) {
	switch name {
	case "topology-cold":
		return &topologyCold{n: 2000}, nil
	case "session-churn":
		return &sessionChurn{side: 100}, nil
	case "simulate":
		return &simulateWL{spec: simSpec{N: 200, Steps: 2000, Rate: 2, Sinks: 2, Range: 0.15}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want topology-cold, session-churn or simulate)", name)
}

func geomPoints(pts []gridPt) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		xy := p.xy()
		out[i] = geom.Pt(xy[0], xy[1])
	}
	return out
}

// sampled reports whether op k's response is kept for the correctness
// check.
func sampled(k int) bool { return k%29 == 3 }

func keep(c *client, k int) {
	if sampled(k) {
		c.samples[k] = append([]byte(nil), c.buf.Bytes()...)
	}
}

// ---- topology-cold ----------------------------------------------------

// topologyCold posts a fresh explicit point list each op with range
// omitted; its read revalidates that topology with If-None-Match.
type topologyCold struct {
	n      int
	bodies [2][][]byte
	sets   [2][][]gridPt
}

func (w *topologyCold) name() string         { return "topology-cold" }
func (w *topologyCold) daemonArgs() []string { return nil }
func (w *topologyCold) opsPerSecond() int    { return 49 }
func (w *topologyCold) warmup() int          { return 8 }

func (w *topologyCold) prepare(seed int64, total int) {
	for c := range w.bodies {
		w.bodies[c], w.sets[c] = topologyOps(seed, c, w.n, total)
	}
}

func (w *topologyCold) setup([]*client) error { return nil }

func (w *topologyCold) op(c *client, k int, timed bool) {
	h, lat, ok := c.do("POST", "/v1/topology", w.bodies[c.id][k], nil, http.StatusOK)
	if !ok {
		return
	}
	keep(c, k)
	c.etag = h.Get("ETag")
	if timed {
		c.opLat = append(c.opLat, lat)
		c.xcache[h.Get("X-Cache")]++
	}
}

// read revalidates op k's topology: the daemon decodes and digests the
// request and answers 304 without building.
func (w *topologyCold) read(c *client, k int, timed bool) {
	_, lat, ok := c.do("POST", "/v1/topology", w.bodies[c.id][k], map[string]string{"If-None-Match": c.etag}, http.StatusNotModified)
	if ok && timed {
		c.readLat = append(c.readLat, lat)
	}
}

type topologyView struct {
	N           int     `json:"n"`
	NumEdges    int     `json:"num_edges"`
	MaxDegree   int     `json:"max_degree"`
	DegreeBound int     `json:"degree_bound"`
	Range       float64 `json:"range"`
}

// check rebuilds every sampled op in-process: the range must be
// bit-equal to 1.3 × unitdisk.CriticalRange, the edge count equal to
// topology.BuildTheta's, and the degree within the paper's bound.
func (w *topologyCold) check(cs []*client) error {
	checked := 0
	for _, c := range cs {
		for k, body := range c.samples {
			var got topologyView
			if err := json.Unmarshal(body, &got); err != nil {
				return fmt.Errorf("client %d op %d: %v", c.id, k, err)
			}
			pts := geomPoints(w.sets[c.id][k])
			d := unitdisk.CriticalRange(pts) * rangeSlack
			top := topology.BuildTheta(pts, topology.Config{Range: d})
			switch {
			case got.N != len(pts):
				return fmt.Errorf("client %d op %d: n %d, want %d", c.id, k, got.N, len(pts))
			case got.Range != d:
				return fmt.Errorf("client %d op %d: range %v, want %v", c.id, k, got.Range, d)
			case got.NumEdges != top.N.NumEdges():
				return fmt.Errorf("client %d op %d: %d edges, want %d", c.id, k, got.NumEdges, top.N.NumEdges())
			case got.DegreeBound != top.DegreeBound() || got.MaxDegree > got.DegreeBound:
				return fmt.Errorf("client %d op %d: max degree %d, bound %d (want bound %d)", c.id, k, got.MaxDegree, got.DegreeBound, top.DegreeBound())
			}
			checked++
		}
	}
	if checked == 0 {
		return errors.New("no sampled topology responses")
	}
	return nil
}

// ---- session-churn ----------------------------------------------------

// sessionChurn hosts one side²-node session per client (one tenant each) and
// streams seeded NDJSON event batches into it; its read is a conditional
// GET of the session.
type sessionChurn struct {
	side  int
	plans [2]*sessionPlan
}

func (w *sessionChurn) name() string { return "session-churn" }
func (w *sessionChurn) daemonArgs() []string {
	return []string{"-shards", "2", "-replicas", "1", "-session-rate", "-1"}
}
func (w *sessionChurn) opsPerSecond() int { return 199 }
func (w *sessionChurn) warmup() int       { return 4 }

func (w *sessionChurn) prepare(seed int64, total int) {
	for c := range w.plans {
		w.plans[c] = sessionOps(seed, c, w.side, total)
	}
}

func tenantHeader(c *client) map[string]string {
	return map[string]string{"X-Tenant-ID": "bench-" + strconv.Itoa(c.id)}
}

func (w *sessionChurn) setup(cs []*client) error {
	var firstErr error
	parallel(cs, func(c *client) {
		_, _, ok := c.do("POST", "/v1/sessions", w.plans[c.id].create, tenantHeader(c), http.StatusCreated)
		if !ok {
			return
		}
		var st struct {
			ID  string `json:"id"`
			Gen int64  `json:"gen"`
		}
		if err := json.Unmarshal(c.buf.Bytes(), &st); err != nil || st.ID == "" {
			c.fail("session create: unparsable body %.200s", c.buf.String())
			return
		}
		c.sessionID, c.lastGen, c.acked = st.ID, st.Gen, 0
	})
	for _, c := range cs {
		if c.sessionID == "" {
			firstErr = fmt.Errorf("client %d: session create failed: %v", c.id, c.failures)
		}
	}
	return firstErr
}

func (w *sessionChurn) op(c *client, k int, timed bool) {
	_, lat, ok := c.do("POST", "/v1/sessions/"+c.sessionID+"/events", w.plans[c.id].batches[k], tenantHeader(c), http.StatusOK)
	if ok {
		lines := bytes.Split(bytes.TrimSpace(c.buf.Bytes()), []byte("\n"))
		good := 0
		for _, ln := range lines {
			if bytes.Contains(ln, []byte(`"error"`)) {
				c.fail("event error: %.200s", ln)
				continue
			}
			good++
		}
		c.acked += int64(good)
		if len(lines) != batchSize {
			c.fail("events: %d result lines, want %d", len(lines), batchSize)
		}
		if timed {
			c.opLat = append(c.opLat, lat)
		}
	}
}

// read is the conditional GET of the session at the client's last-read
// generation. A replica within its staleness budget may not hold the
// batch yet and answer 304 for the generation the client already has.
func (w *sessionChurn) read(c *client, k int, timed bool) {
	hdr := tenantHeader(c)
	hdr["If-None-Match"] = strconv.FormatInt(c.lastGen, 10)
	h, lat, ok := c.do("GET", "/v1/sessions/"+c.sessionID, nil, hdr, http.StatusOK, http.StatusNotModified)
	if !ok {
		return
	}
	if g, err := strconv.ParseInt(h.Get("ETag"), 10, 64); err == nil {
		c.lastGen = g
	}
	if timed {
		c.readLat = append(c.readLat, lat)
		c.sources[h.Get("X-Session-Source")]++
	}
}

type snapshotView struct {
	Gen    int64        `json:"gen"`
	Points [][2]float64 `json:"points"`
	Edges  [][2]int     `json:"edges"`
}

// check reads each session's final snapshot: its generation must equal the
// acked event count, its points the client-side mirror, and its edges
// topology.BuildTheta over those points at the session's fixed range.
func (w *sessionChurn) check(cs []*client) error {
	for _, c := range cs {
		plan := w.plans[c.id]
		var snap snapshotView
		// A replica may serve a read while it trails the acked stream by up
		// to the staleness budget; wait for it to catch up.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, _, ok := c.do("GET", "/v1/sessions/"+c.sessionID, nil, tenantHeader(c), http.StatusOK); !ok {
				return fmt.Errorf("client %d: final snapshot read failed: %v", c.id, c.failures)
			}
			snap = snapshotView{}
			if err := json.Unmarshal(c.buf.Bytes(), &snap); err != nil {
				return fmt.Errorf("client %d: final snapshot: %v", c.id, err)
			}
			if snap.Gen == c.acked || time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if snap.Gen != c.acked {
			return fmt.Errorf("client %d: final generation %d, want %d acked events", c.id, snap.Gen, c.acked)
		}
		want := toXY(plan.final)
		if len(snap.Points) != len(want) {
			return fmt.Errorf("client %d: %d points, want %d", c.id, len(snap.Points), len(want))
		}
		for i := range want {
			if snap.Points[i] != want[i] {
				return fmt.Errorf("client %d: point %d is %v, want %v", c.id, i, snap.Points[i], want[i])
			}
		}
		d := unitdisk.CriticalRange(geomPoints(plan.initial)) * rangeSlack
		top := topology.BuildTheta(geomPoints(plan.final), topology.Config{Range: d})
		if err := sameEdges(snap.Edges, top); err != nil {
			return fmt.Errorf("client %d: final snapshot vs BuildTheta: %w", c.id, err)
		}
	}
	return nil
}

func sameEdges(got [][2]int, top *topology.Topology) error {
	norm := func(es [][2]int) [][2]int {
		out := make([][2]int, len(es))
		for i, e := range es {
			if e[0] > e[1] {
				e[0], e[1] = e[1], e[0]
			}
			out[i] = e
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i][0] != out[j][0] {
				return out[i][0] < out[j][0]
			}
			return out[i][1] < out[j][1]
		})
		return out
	}
	var want [][2]int
	for _, e := range top.N.Edges() {
		want = append(want, [2]int{e.U, e.V})
	}
	g, wn := norm(got), norm(want)
	if len(g) != len(wn) {
		return fmt.Errorf("%d edges, want %d", len(g), len(wn))
	}
	for i := range g {
		if g[i] != wn[i] {
			return fmt.Errorf("edge %d is %v, want %v", i, g[i], wn[i])
		}
	}
	return nil
}

// ---- simulate ---------------------------------------------------------

// simulateWL posts a random-MAC routing simulation over a fresh explicit
// point list with range given; its read is GET /healthz.
type simulateWL struct {
	spec   simSpec
	bodies [2][][]byte
	sets   [2][][]gridPt
	seeds  [2][]int64
}

func (w *simulateWL) name() string         { return "simulate" }
func (w *simulateWL) daemonArgs() []string { return nil }
func (w *simulateWL) opsPerSecond() int    { return 99 }
func (w *simulateWL) warmup() int          { return 8 }

func (w *simulateWL) prepare(seed int64, total int) {
	for c := range w.bodies {
		w.bodies[c], w.sets[c], w.seeds[c] = simulateOps(seed, c, w.spec, total)
	}
}

func (w *simulateWL) setup([]*client) error { return nil }

func (w *simulateWL) op(c *client, k int, timed bool) {
	_, lat, ok := c.do("POST", "/v1/simulate", w.bodies[c.id][k], nil, http.StatusOK)
	if ok {
		keep(c, k)
		if timed {
			c.opLat = append(c.opLat, lat)
		}
	}
}

// read is a liveness probe of the daemon that has just run two long jobs.
func (w *simulateWL) read(c *client, k int, timed bool) {
	_, lat, ok := c.do("GET", "/healthz", nil, nil, http.StatusOK)
	if ok && timed {
		c.readLat = append(c.readLat, lat)
	}
}

// simOptions are the facade options the daemon derives from one op's
// request (api.go: router buffer 100, sinks spread evenly through the id
// space, traffic over the whole horizon).
func (w *simulateWL) simOptions(pts []geom.Point, simSeed int64) toporouting.SimulationOptions {
	sinks := w.sinks(len(pts))
	return toporouting.SimulationOptions{
		Points:  pts,
		Range:   w.spec.Range,
		MAC:     toporouting.MACRandom,
		Router:  toporouting.RouterOptions{BufferSize: 100},
		Traffic: toporouting.SinksTraffic(len(pts), sinks, w.spec.Rate, w.spec.Steps),
		Steps:   w.spec.Steps,
		Seed:    simSeed,
	}
}

func (w *simulateWL) sinks(n int) []int {
	sinks := make([]int, w.spec.Sinks)
	for i := range sinks {
		sinks[i] = (i * n) / (w.spec.Sinks + 1)
	}
	return sinks
}

// check re-runs every sampled op in-process with toporouting.Simulate:
// delivered, dropped and queued must match exactly.
func (w *simulateWL) check(cs []*client) error {
	checked := 0
	for _, c := range cs {
		for k, body := range c.samples {
			var got struct {
				Results []struct {
					Delivered int64 `json:"delivered"`
					Dropped   int64 `json:"dropped"`
					Queued    int   `json:"queued"`
				} `json:"results"`
			}
			if err := json.Unmarshal(body, &got); err != nil || len(got.Results) != 1 {
				return fmt.Errorf("client %d op %d: unparsable simulate response", c.id, k)
			}
			want, err := toporouting.Simulate(w.simOptions(geomPoints(w.sets[c.id][k]), w.seeds[c.id][k]))
			if err != nil {
				return fmt.Errorf("client %d op %d: in-process simulate: %v", c.id, k, err)
			}
			r := got.Results[0]
			if r.Delivered != want.Delivered || r.Dropped != want.Dropped || r.Queued != want.Queued {
				return fmt.Errorf("client %d op %d: delivered/dropped/queued %d/%d/%d, want %d/%d/%d",
					c.id, k, r.Delivered, r.Dropped, r.Queued, want.Delivered, want.Dropped, want.Queued)
			}
			checked++
		}
	}
	if checked == 0 {
		return errors.New("no sampled simulate responses")
	}
	return nil
}
