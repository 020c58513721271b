package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"toporouting/internal/telemetry"
)

// layerMetrics fills the per-layer metrics of a traced run: the replay's
// span folds plus the counts only visible from outside the daemon, taken
// from the traced end-to-end pass (X-Cache and X-Session-Source headers,
// the final /metrics scrape, and /debug/vars memstats around the timed
// region).
func layerMetrics(e *e2eRun, tr *replayResult, m map[string]metric) {
	vals := map[string]float64{}
	for k, v := range tr.layer {
		vals[k] = v
	}
	var opLat, readLat []time.Duration
	xcache, sources := map[string]int{}, map[string]int{}
	for _, c := range e.clients {
		opLat = append(opLat, c.opLat...)
		readLat = append(readLat, c.readLat...)
		for k, v := range c.xcache {
			xcache[k] += v
		}
		for k, v := range c.sources {
			sources[k] += v
		}
	}
	e2eP50 := summarize(opLat).p50
	if tr.readOverhead {
		e2eP50 = summarize(readLat).p50
	}
	vals["http.overhead_ms"] = e2eP50 - tr.handleP50
	vals["topocache.hit_ratio"] = ratio(xcache["hit"]+xcache["coalesced"], xcache["hit"]+xcache["coalesced"]+xcache["miss"])
	vals["cluster.replica_read_share"] = ratio(sources["replica"], sources["replica"]+sources["primary"])

	prom := parseMetrics(e.metricsText)
	vals["server.queue_wait_p50_ms"] = prom.value("toporouting_server_queue_wait_ms", "quantile", "0.5")
	if n := prom.value("toporouting_cluster_replica_lag_gens_count", "", ""); n > 0 {
		vals["cluster.replica_lag_gens"] = prom.value("toporouting_cluster_replica_lag_gens_sum", "", "") / n
	}
	vals["telemetry.histogram_samples"] = prom.summarySamples()

	before, after := memstats(e.varsBefore), memstats(e.varsAfter)
	if e.ops > 0 && after.NumGC >= before.NumGC {
		vals["runtime.alloc_kib_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(e.ops)
		vals["runtime.gc_cycles_per_kop"] = float64(after.NumGC-before.NumGC) * 1000 / float64(e.ops)
	}
	for _, lm := range perLayer {
		m[lm.name] = metric{vals[lm.name], lm.unit}
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

type promSamples []telemetry.PromSample

func parseMetrics(text []byte) promSamples {
	s, err := telemetry.ParsePrometheus(bytes.NewReader(text))
	if err != nil {
		fmt.Printf("warning: /metrics exposition: %v\n", err)
	}
	return s
}

// value is the first sample named name (with label key=val when key is
// set); 0 when absent.
func (ps promSamples) value(name, key, val string) float64 {
	for _, s := range ps {
		if s.Name == name && (key == "" || s.Labels[key] == val) {
			return s.Value
		}
	}
	return 0
}

// summarySamples totals the _count of every summary family — the samples
// the daemon's sample histograms hold, all of which a scrape sorts.
func (ps promSamples) summarySamples() float64 {
	summaries := map[string]bool{}
	for _, s := range ps {
		if _, ok := s.Labels["quantile"]; ok {
			summaries[s.Name] = true
		}
	}
	total := 0.0
	for _, s := range ps {
		if fam, ok := strings.CutSuffix(s.Name, "_count"); ok && summaries[fam] {
			total += s.Value
		}
	}
	return total
}

type memStats struct {
	TotalAlloc uint64
	NumGC      uint32
}

func memstats(vars []byte) memStats {
	var v struct {
		MemStats memStats `json:"memstats"`
	}
	_ = json.Unmarshal(vars, &v)
	return v.MemStats
}
