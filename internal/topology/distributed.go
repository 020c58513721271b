package topology

import (
	"fmt"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/spatial"
	"toporouting/internal/telemetry"
)

// This file contains the faithful distributed implementation of ΘALG as
// three rounds of local message broadcasting (Section 2.1): a Position
// round, a Neighborhood round and a Connection round. Nodes compute only
// from messages they receive; the radio medium (which node hears which
// broadcast) is simulated by the runtime. The result is provably identical
// to the centralized BuildTheta, and TestDistributedMatchesCentralized
// asserts it.

// MsgKind labels the three message types of the protocol.
type MsgKind int

// Message kinds, one per protocol round.
const (
	MsgPosition MsgKind = iota
	MsgNeighborhood
	MsgConnection
)

// String returns the protocol name of the message kind.
func (k MsgKind) String() string {
	switch k {
	case MsgPosition:
		return "Position"
	case MsgNeighborhood:
		return "Neighborhood"
	case MsgConnection:
		return "Connection"
	default:
		return fmt.Sprintf("MsgKind(%d)", int(k))
	}
}

// Message is a protocol message. Position messages are broadcast (To < 0);
// Neighborhood and Connection messages are unicast.
type Message struct {
	Kind     MsgKind
	From, To int
	// Pos is the sender position (Position messages).
	Pos geom.Point
	// Neighbors is the sender's phase-1 selection set N(From)
	// (Neighborhood messages).
	Neighbors []int32
}

// ProtocolStats counts the traffic of a distributed run.
type ProtocolStats struct {
	// PositionMsgs, NeighborhoodMsgs, ConnectionMsgs count the messages
	// sent in each round (a broadcast counts once regardless of
	// receivers).
	PositionMsgs, NeighborhoodMsgs, ConnectionMsgs int
	// Deliveries counts point-to-point deliveries (a broadcast counts
	// once per receiver).
	Deliveries int
}

// distNode is the per-node protocol state; it holds only locally received
// information.
type distNode struct {
	id  int
	pos geom.Point
	// heard are the (id, position) pairs received in the Position round.
	heard []posInfo
	// nearest is the node's phase-1 selection per sector, computed
	// locally from heard.
	nearest []int32
	// suitors are the senders of Neighborhood messages that selected
	// this node.
	suitors []int32
}

type posInfo struct {
	id  int32
	pos geom.Point
}

// BuildThetaDistributed runs the 3-round distributed ΘALG protocol and
// returns the resulting topology (with the same tables as BuildTheta) and
// message statistics. Node decisions use only received messages; the
// runtime only plays the role of the radio medium, delivering each
// Position broadcast to the nodes within transmission range.
func BuildThetaDistributed(pts []geom.Point, cfg Config) (*Topology, ProtocolStats) {
	t := prepare(pts, cfg, nil)
	cfg, sectors := t.Cfg, t.Sectors
	n := len(pts)
	k := sectors.Count()
	sectorOf := func(u int, from, to geom.Point) int {
		if cfg.Orientations != nil {
			return sectors.IndexOfOriented(from, to, cfg.Orientations[u])
		}
		return sectors.IndexOf(from, to)
	}
	var stats ProtocolStats
	tel := cfg.Telemetry
	stopBuild := tel.StartPhase("topology.dist.build")

	nodes := make([]distNode, n)
	for i := range nodes {
		nodes[i] = distNode{id: i, pos: pts[i], nearest: make([]int32, k)}
		for s := range nodes[i].nearest {
			nodes[i].nearest[s] = -1
		}
	}

	// Round 1 — Position: every node broadcasts its GPS position at
	// maximum power; every node within range D hears it.
	stopRound1 := tel.StartPhase("topology.dist.position")
	medium := spatial.NewGrid(pts, cfg.Range)
	for u := range nodes {
		stats.PositionMsgs++
		medium.ForEachWithin(pts[u], cfg.Range, func(v int) {
			if v == u {
				return
			}
			nodes[v].heard = append(nodes[v].heard, posInfo{id: int32(u), pos: pts[u]})
			stats.Deliveries++
		})
	}

	// Local computation: each node derives N(u) from the positions it
	// heard, picking the nearest node per sector (ties by id, realizing
	// the unique-distance assumption).
	for u := range nodes {
		nd := &nodes[u]
		for _, h := range nd.heard {
			s := sectorOf(u, nd.pos, h.pos)
			cur := nd.nearest[s]
			if cur < 0 {
				nd.nearest[s] = h.id
				continue
			}
			// Find current holder's position among heard messages is
			// unnecessary: distances are computable from the stored
			// payloads. Compare using the local copies.
			curPos := nd.lookup(cur)
			da, db := geom.Dist2(nd.pos, h.pos), geom.Dist2(nd.pos, curPos)
			if da < db || (da == db && h.id < cur) {
				nd.nearest[s] = h.id
			}
		}
	}

	stopRound1()

	// Round 2 — Neighborhood: each node u unicasts N(u) to every member
	// of N(u), informing them they were selected.
	stopRound2 := tel.StartPhase("topology.dist.neighborhood")
	inbox2 := make([][]Message, n)
	for u := range nodes {
		nd := &nodes[u]
		sent := make(map[int32]bool, k)
		var sel []int32
		for _, v := range nd.nearest {
			if v >= 0 && !sent[v] {
				sent[v] = true
				sel = append(sel, v)
			}
		}
		for _, v := range sel {
			msg := Message{Kind: MsgNeighborhood, From: u, To: int(v), Neighbors: sel}
			inbox2[v] = append(inbox2[v], msg)
			stats.NeighborhoodMsgs++
			stats.Deliveries++
		}
	}

	// Local computation: each node records its suitors (nodes that
	// selected it), verifying the payload.
	for v := range nodes {
		for _, msg := range inbox2[v] {
			selected := false
			for _, x := range msg.Neighbors {
				if int(x) == v {
					selected = true
					break
				}
			}
			if selected {
				nodes[v].suitors = append(nodes[v].suitors, int32(msg.From))
			}
		}
	}

	stopRound2()

	// Round 3 — Connection: each node v answers, per sector, its nearest
	// suitor with a Connection message; every Connection message creates
	// an edge of N.
	stopRound3 := tel.StartPhase("topology.dist.connection")
	admitIn := newSectorTable(n, k)
	nGraph := graph.New(n)
	for v := range nodes {
		nd := &nodes[v]
		for _, w := range nd.suitors {
			s := sectorOf(v, nd.pos, nd.lookup(w))
			cur := admitIn[v][s]
			if cur < 0 {
				admitIn[v][s] = w
				continue
			}
			da := geom.Dist2(nd.pos, nd.lookup(w))
			db := geom.Dist2(nd.pos, nd.lookup(cur))
			if da < db || (da == db && w < cur) {
				admitIn[v][s] = w
			}
		}
		for _, w := range admitIn[v] {
			if w >= 0 {
				stats.ConnectionMsgs++
				stats.Deliveries++
				nGraph.AddEdge(v, int(w))
			}
		}
	}

	stopRound3()

	// Assemble the same artifact BuildTheta returns. The Yao graph is the
	// undirected closure of the local selections.
	yao := graph.New(n)
	nearestOut := newSectorTable(n, k)
	for u := range nodes {
		copy(nearestOut[u], nodes[u].nearest)
		for _, v := range nodes[u].nearest {
			if v >= 0 {
				yao.AddEdge(u, int(v))
			}
		}
	}
	t.N, t.Yao, t.NearestOut, t.AdmitIn = nGraph, yao, nearestOut, admitIn
	stopBuild()
	if tel.Enabled() {
		tel.Counter("topology.dist.builds").Inc()
		tel.Counter("topology.dist.position_msgs").Add(int64(stats.PositionMsgs))
		tel.Counter("topology.dist.neighborhood_msgs").Add(int64(stats.NeighborhoodMsgs))
		tel.Counter("topology.dist.connection_msgs").Add(int64(stats.ConnectionMsgs))
		tel.Counter("topology.dist.deliveries").Add(int64(stats.Deliveries))
	}
	if tel.Tracing() {
		tel.Emit(telemetry.Event{Layer: "topology", Kind: "dist_build", Fields: map[string]float64{
			"n":                 float64(n),
			"edges":             float64(nGraph.NumEdges()),
			"position_msgs":     float64(stats.PositionMsgs),
			"neighborhood_msgs": float64(stats.NeighborhoodMsgs),
			"connection_msgs":   float64(stats.ConnectionMsgs),
			"deliveries":        float64(stats.Deliveries),
		}})
	}
	return t, stats
}

// lookup returns the position of node id as heard in the Position round.
// It panics if id was never heard — protocol invariant: nodes only refer to
// nodes they heard from.
func (nd *distNode) lookup(id int32) geom.Point {
	for _, h := range nd.heard {
		if h.id == id {
			return h.pos
		}
	}
	panic(fmt.Sprintf("topology: node %d referenced unheard node %d", nd.id, id))
}
