// Command perfbench is the repository benchmark. It launches
// cmd/toporoutingd as a child process, drives it over loopback with a
// closed loop of two client connections for a fixed operation count, checks
// the daemon's outputs, and prints every end-to-end metric by name and
// unit. With -trace 1 it instead measures per-layer numbers: the same
// seeded traffic runs once more against the daemon (for the counts only
// visible from outside) and is then replayed in-process through each
// layer's public calls under recorded spans.
//
// Usage (from the repository root; perfbench/run.sh builds both binaries):
//
//	perfbench -daemon toporoutingd -workload topology-cold -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// setupReps is how many times an untraced run launches and sets up the
// daemon; setup_s is the median over the launches.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		wlName  = flag.String("workload", "", "topology-cold, session-churn or simulate")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 10, "run size: the timed op count is a fixed per-workload rate times this")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay instead of end-to-end metrics")
		bin     = flag.String("daemon", "", "path to the toporoutingd binary under test")
		outDir  = flag.String("out", ".", "directory for the traced run's span file")
	)
	flag.Parse()
	if *bin == "" {
		return fmt.Errorf("-daemon is required")
	}
	if _, err := os.Stat(*bin); err != nil {
		return fmt.Errorf("daemon binary: %w", err)
	}
	w, err := workloadByName(*wlName)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	printHostFacts(*bin)

	reps := setupReps
	if *trace != 0 {
		reps = 1
	}
	e2e, err := runE2E(w, *bin, *seed, *seconds, reps, *trace != 0)
	if err != nil {
		return err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, c := range e2e.allClients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		for _, f := range c.failures {
			fmt.Printf("failure: client %d: %s\n", c.id, f)
		}
	}
	if e2e.checkErr != nil {
		fmt.Printf("check FAILED: %v\n", e2e.checkErr)
		res.Correct = false
	} else {
		fmt.Println("check ok: sampled outputs match the in-process reference")
	}
	if e2e.daemonStopErr != nil {
		fmt.Printf("check FAILED: %v\n", e2e.daemonStopErr)
		res.Correct = false
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	if *trace == 0 {
		e2eMetrics(w, e2e, res.Metrics)
	} else {
		tr, err := replay(w)
		if err != nil {
			return err
		}
		if tr.err != nil {
			fmt.Printf("check FAILED: replay: %v\n", tr.err)
			res.Correct = false
		}
		layerMetrics(e2e, tr, res.Metrics)
		if err := tr.spans.write(*outDir, w.name(), *seed); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("%-32s %14.6f %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// e2eMetrics fills the end-to-end metrics of an untraced run.
func e2eMetrics(w workload, e *e2eRun, m map[string]metric) {
	var opLat, readLat, scrapeLat []time.Duration
	for _, c := range e.clients {
		opLat = append(opLat, c.opLat...)
		readLat = append(readLat, c.readLat...)
		scrapeLat = append(scrapeLat, c.scrapeLat...)
	}
	ops, reads, scrapes := summarize(opLat), summarize(readLat), summarize(scrapeLat)
	setups := make([]float64, len(e.setups))
	for i, s := range e.setups {
		setups[i] = s.Seconds()
	}
	fmt.Printf("workload %s: %d timed ops in %.3f s; setup launches %v\n", w.name(), e.ops, e.wall.Seconds(), e.setups)
	fmt.Printf("op latency: %s\n", ops)
	fmt.Printf("read latency: %s\n", reads)
	fmt.Printf("scrape latency: %s\n", scrapes)
	m["setup_s"] = metric{median(setups), "s"}
	m["ops_per_s"] = metric{float64(len(opLat)) / e.wall.Seconds(), "1/s"}
	m["latency_p50_ms"] = metric{ops.p50, "ms"}
	m["latency_tail_ms"] = metric{ops.tail, "ms"}
	m["cpu_ms_per_op"] = metric{float64(e.cpu) / float64(time.Millisecond) / float64(e.ops), "ms"}
	m["peak_rss_mib"] = metric{e.peakRSS, "MiB"}
	m["read_p50_ms"] = metric{reads.p50, "ms"}
	m["scrape_p50_ms"] = metric{scrapes.p50, "ms"}
}
