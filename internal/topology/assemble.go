package topology

import (
	"fmt"

	"toporouting/internal/geom"
)

// CheckDistinct enforces the paper's standing assumption of distinct node
// positions (exported for alternative builders such as the message-passing
// engine in internal/dist, which must reject degenerate inputs before
// running the protocol).
func CheckDistinct(pts []geom.Point) { checkDistinct(pts) }

// AssembleTables constructs a Topology from externally computed per-sector
// selection and admission tables — the output surface of builders that do
// not run inside this package, such as the asynchronous message-passing
// engine (internal/dist). It runs Build's prelude and stitch around the
// given tables, so the Yao graph and N are their undirected closures
// exactly as Build materializes them; no validation of the tables'
// semantics is performed beyond shape checks, so the result is only as
// correct as the protocol that produced the tables.
func AssembleTables(pts []geom.Point, cfg Config, nearestOut, admitIn [][]int32) *Topology {
	t := prepare(pts, cfg, nil)
	n, k := len(pts), t.Sectors.Count()
	if len(nearestOut) != n || len(admitIn) != n {
		panic(fmt.Sprintf("topology: tables for %d/%d nodes, want %d", len(nearestOut), len(admitIn), n))
	}
	for u := 0; u < n; u++ {
		if len(nearestOut[u]) != k || len(admitIn[u]) != k {
			panic(fmt.Sprintf("topology: node %d has %d/%d sectors, want %d", u, len(nearestOut[u]), len(admitIn[u]), k))
		}
	}
	t.NearestOut, t.AdmitIn = nearestOut, admitIn
	t.stitch(nil, 0)
	return t
}
