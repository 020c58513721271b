package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
)

// Every request body and event stream is generated here, from the seed
// argument alone, before the daemon starts. Coordinates are multiples of
// 1e-9 (grid ticks), so each one encodes in at most 11 JSON characters and
// round-trips through the daemon's decoder bit for bit; points within one
// set are distinct.

// tick is the coordinate grid: a coordinate is an int64 tick count / 1e9.
const tick = 1e9

type gridPt [2]int64

func (p gridPt) xy() [2]float64 { return [2]float64{float64(p[0]) / tick, float64(p[1]) / tick} }

// stream returns the random source of one (seed, purpose, client) stream.
// Purposes are independent: adding ops to one stream never shifts another.
func stream(seed int64, purpose, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(purpose)*7919 + int64(client)))
}

const (
	purposeTopology = iota + 1
	purposeSessionPoints
	purposeSessionEvents
	purposeSimulate
)

// uniformSet draws n distinct points uniformly from the unit square.
func uniformSet(r *rand.Rand, n int) []gridPt {
	seen := make(map[gridPt]struct{}, n)
	out := make([]gridPt, 0, n)
	for len(out) < n {
		p := gridPt{r.Int63n(tick), r.Int63n(tick)}
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	return out
}

// perturbedGrid places one point in each cell of a side×side grid over
// the unit square, uniformly within the central quarter of its cell
// (±1/8 of the spacing per axis): a planned deployment with placement
// error. Its largest gap — which sets a hosted session's default range,
// and with it the cost of every repair — varies by about ±3% between
// seeds, where independent uniform placement lets a single void move it
// by ±30% and a run's cost with it.
func perturbedGrid(r *rand.Rand, side int) []gridPt {
	cell := int64(tick) / int64(side)
	span := cell / 4
	out := make([]gridPt, 0, side*side)
	for i := int64(0); i < int64(side); i++ {
		for j := int64(0); j < int64(side); j++ {
			out = append(out, gridPt{i*cell + span/2 + r.Int63n(span), j*cell + span/2 + r.Int63n(span)})
		}
	}
	return out
}

// clusteredSet draws n distinct points from 16 Gaussian clusters whose
// centres sit on a jittered 4×4 grid over the unit square. The jittered
// grid keeps the largest inter-cluster gap — which sets the default range
// and so the cost of a build — similar from one set to the next.
func clusteredSet(r *rand.Rand, n int) []gridPt {
	const side, sigma, jitter = 4, 0.035, 0.05
	var centres [side * side][2]float64
	for i := range centres {
		cx := (float64(i%side) + 0.5) / side
		cy := (float64(i/side) + 0.5) / side
		centres[i] = [2]float64{cx + (r.Float64()*2-1)*jitter, cy + (r.Float64()*2-1)*jitter}
	}
	seen := make(map[gridPt]struct{}, n)
	out := make([]gridPt, 0, n)
	for len(out) < n {
		c := centres[len(out)%len(centres)]
		p := gridPt{
			int64((c[0] + r.NormFloat64()*sigma) * tick),
			int64((c[1] + r.NormFloat64()*sigma) * tick),
		}
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	return out
}

func toXY(pts []gridPt) [][2]float64 {
	out := make([][2]float64, len(pts))
	for i, p := range pts {
		out[i] = p.xy()
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err))
	}
	return b
}

// topologyBody is one POST /v1/topology request: range omitted (the
// daemon computes its default), no edge list requested.
func topologyBody(pts []gridPt) []byte {
	return mustJSON(struct {
		Points [][2]float64 `json:"points"`
	}{toXY(pts)})
}

// isClustered reports whether topology-cold op k uses a clustered set:
// one op in four, so the median stays inside the uniform class.
func isClustered(k int) bool { return k%4 == 3 }

// topologyOps generates count topology bodies (and their point sets) for
// one client.
func topologyOps(seed int64, client, n, count int) ([][]byte, [][]gridPt) {
	r := stream(seed, purposeTopology, client)
	bodies := make([][]byte, count)
	sets := make([][]gridPt, count)
	for k := range bodies {
		if isClustered(k) {
			sets[k] = clusteredSet(r, n)
		} else {
			sets[k] = uniformSet(r, n)
		}
		bodies[k] = topologyBody(sets[k])
	}
	return bodies, sets
}

// simSpec is the fixed shape of a /v1/simulate op.
type simSpec struct {
	N, Steps, Rate, Sinks int
	Range                 float64
}

// simulateBody is one POST /v1/simulate request with the random MAC.
func simulateBody(pts []gridPt, sp simSpec, simSeed int64) []byte {
	type traffic struct {
		Rate  int `json:"rate"`
		Sinks int `json:"sinks"`
	}
	return mustJSON(struct {
		Points  [][2]float64 `json:"points"`
		Range   float64      `json:"range"`
		MAC     string       `json:"mac"`
		Traffic traffic      `json:"traffic"`
		Steps   int          `json:"steps"`
		SimSeed int64        `json:"sim_seed"`
	}{toXY(pts), sp.Range, "random", traffic{sp.Rate, sp.Sinks}, sp.Steps, simSeed})
}

// simulateOps generates count simulate bodies for one client, each with a
// fresh uniform point set and its own simulation seed.
func simulateOps(seed int64, client int, sp simSpec, count int) ([][]byte, [][]gridPt, []int64) {
	r := stream(seed, purposeSimulate, client)
	bodies := make([][]byte, count)
	sets := make([][]gridPt, count)
	seeds := make([]int64, count)
	for k := range bodies {
		sets[k] = uniformSet(r, sp.N)
		seeds[k] = r.Int63n(1 << 40)
		bodies[k] = simulateBody(sets[k], sp, seeds[k])
	}
	return bodies, sets, seeds
}

// churnState is the client-side mirror of one hosted session's node set:
// node ids are dense and a leave relabels the last id onto the vacated
// one, exactly as the session does, so every generated event names a live
// node and no position is ever occupied twice.
type churnState struct {
	pts  []gridPt
	used map[gridPt]struct{}
}

func newChurnState(pts []gridPt) *churnState {
	s := &churnState{pts: append([]gridPt(nil), pts...), used: make(map[gridPt]struct{}, len(pts))}
	for _, p := range pts {
		s.used[p] = struct{}{}
	}
	return s
}

// freshNear returns an unoccupied point within ±step ticks of p.
func (s *churnState) freshNear(r *rand.Rand, p gridPt, step int64) gridPt {
	for {
		q := gridPt{p[0] + r.Int63n(2*step+1) - step, p[1] + r.Int63n(2*step+1) - step}
		if _, dup := s.used[q]; !dup && q != p {
			return q
		}
	}
}

// batchSize is the number of events in one session-churn op, and
// joinsPerBatch/leavesPerBatch keep the node count level.
const (
	batchSize      = 32
	joinsPerBatch  = 2
	leavesPerBatch = 2
	moveStep       = 10_000_000 // ±0.01 of the unit square per move
)

// nextBatch returns one NDJSON batch of batchSize events and advances the
// mirror: short moves, then the joins, then the leaves. A replica replays
// a leave by rescanning its whole edge set while holding the lock that
// replica reads take, so the follow-up read races that replay. Ending every
// batch on its leaves makes every read meet the same stage of the race;
// with leaves at random positions, whether a run's median read waited
// depended on the seed and the host's load.
func (s *churnState) nextBatch(r *rand.Rand) []byte {
	kinds := make([]byte, 0, batchSize)
	for len(kinds) < batchSize-joinsPerBatch-leavesPerBatch {
		kinds = append(kinds, 'm')
	}
	for i := 0; i < joinsPerBatch; i++ {
		kinds = append(kinds, 'j')
	}
	for i := 0; i < leavesPerBatch; i++ {
		kinds = append(kinds, 'l')
	}
	var b bytes.Buffer
	for _, k := range kinds {
		switch k {
		case 'j':
			anchor := s.pts[r.Intn(len(s.pts))]
			q := s.freshNear(r, anchor, moveStep)
			s.used[q] = struct{}{}
			s.pts = append(s.pts, q)
			writeEvent(&b, "join", -1, q)
		case 'l':
			v := r.Intn(len(s.pts))
			delete(s.used, s.pts[v])
			last := len(s.pts) - 1
			s.pts[v] = s.pts[last]
			s.pts = s.pts[:last]
			writeEvent(&b, "leave", v, gridPt{})
		default:
			v := r.Intn(len(s.pts))
			q := s.freshNear(r, s.pts[v], moveStep)
			delete(s.used, s.pts[v])
			s.used[q] = struct{}{}
			s.pts[v] = q
			writeEvent(&b, "move", v, q)
		}
	}
	return b.Bytes()
}

func writeEvent(b *bytes.Buffer, op string, node int, p gridPt) {
	b.WriteString(`{"op":"`)
	b.WriteString(op)
	b.WriteByte('"')
	if node >= 0 {
		b.WriteString(`,"node":`)
		b.WriteString(strconv.Itoa(node))
	}
	if op != "leave" {
		xy := p.xy()
		b.WriteString(`,"x":`)
		b.Write(mustJSON(xy[0]))
		b.WriteString(`,"y":`)
		b.Write(mustJSON(xy[1]))
	}
	b.WriteString("}\n")
}

// sessionPlan is one client's hosted session: its initial points, the
// create body, every event batch, and the mirror's node set once all
// batches are applied.
type sessionPlan struct {
	initial []gridPt
	create  []byte
	batches [][]byte
	final   []gridPt
}

// sessionOps plans one client's session over a side×side perturbed grid.
func sessionOps(seed int64, client, side, count int) *sessionPlan {
	initial := perturbedGrid(stream(seed, purposeSessionPoints, client), side)
	p := &sessionPlan{
		initial: initial,
		create: mustJSON(struct {
			Points [][2]float64 `json:"points"`
		}{toXY(initial)}),
		batches: make([][]byte, count),
	}
	st := newChurnState(initial)
	r := stream(seed, purposeSessionEvents, client)
	for k := range p.batches {
		p.batches[k] = st.nextBatch(r)
	}
	p.final = st.pts
	return p
}
