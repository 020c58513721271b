package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// client is one closed-loop connection to the daemon: it sends its next
// request only after the previous response has been read in full.
type client struct {
	id   int
	base string
	hc   *http.Client
	buf  bytes.Buffer

	// Accounting: every request counts as attempted; a transport error, an
	// unexpected status (429 and 5xx included) or an in-stream error line
	// counts as failed.
	attempted, failed int
	failures          []string

	opLat, readLat, scrapeLat []time.Duration

	// Header tallies of the timed ops, for the traced run.
	xcache  map[string]int
	sources map[string]int

	// Per-launch workload state.
	sessionID string
	lastGen   int64
	acked     int64
	etag      string
	samples   map[int][]byte
}

func newClient(id int, base string) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{
		id: id, base: base,
		hc:      &http.Client{Transport: tr, Timeout: 60 * time.Second},
		xcache:  map[string]int{},
		sources: map[string]int{},
		samples: map[int][]byte{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// do issues one request and reads the whole response into c.buf. It
// returns the response header and the latency; ok is false (and the
// failure recorded) on a transport error or a status not among want.
func (c *client) do(method, path string, body []byte, hdr map[string]string, want ...int) (h http.Header, lat time.Duration, ok bool) {
	c.attempted++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.fail("%s %s: %v", method, path, err)
		return nil, 0, false
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	c.buf.Reset()
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail("%s %s: %v", method, path, err)
		return nil, 0, false
	}
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat = time.Since(t0)
	if err != nil {
		c.fail("%s %s: read body: %v", method, path, err)
		return nil, lat, false
	}
	for _, code := range want {
		if resp.StatusCode == code {
			return resp.Header, lat, true
		}
	}
	c.fail("%s %s: status %d (want %v): %.200s", method, path, resp.StatusCode, want, c.buf.String())
	return resp.Header, lat, false
}

// workload is one traffic mix.
type workload interface {
	name() string
	// daemonArgs are the daemon flags beyond -addr and -log.
	daemonArgs() []string
	// opsPerSecond converts --seconds into the run's fixed timed op count
	// (both clients together); warmup is each client's untimed op count.
	// At 10 seconds the counts (490, 990, 1990) sit just below a
	// threshold of the tail rule, so the reported tail (p95, p98, p99) has
	// about twice the minimum ten samples beyond it.
	opsPerSecond() int
	warmup() int
	// prepare generates every input for total ops per client.
	prepare(seed int64, total int)
	// setup runs after each daemon launch and resets per-launch state.
	setup(cs []*client) error
	// op issues client c's op k and read the read that follows it; timed
	// says whether their latencies belong to the timed region.
	op(c *client, k int, timed bool)
	read(c *client, k int, timed bool)
	// check validates the outputs of the final launch.
	check(cs []*client) error
	// replay re-runs client 0's first timed ops in-process under spans
	// and fills tr's per-layer values.
	replay(tr *replayResult) error
}

// e2eRun is what one launch-and-drive pass measured.
type e2eRun struct {
	setups        []time.Duration
	ops           int
	wall          time.Duration
	cpu           time.Duration
	peakRSS       float64
	clients       []*client // the final launch's, which ran the timed region
	allClients    []*client // every launch's, for request accounting
	metricsText   []byte    // final /metrics (traced pass only)
	varsBefore    []byte    // /debug/vars around the timed region (traced pass only)
	varsAfter     []byte
	checkErr      error
	daemonStopErr error
}

// runE2E launches the daemon reps times (setup_s is the median over the
// launches), drives the last launch through the timed region and checks
// its outputs.
func runE2E(w workload, bin string, seed int64, seconds, reps int, traced bool) (*e2eRun, error) {
	perClient := w.opsPerSecond() * seconds / 2
	if perClient < 1 {
		perClient = 1
	}
	w.prepare(seed, w.warmup()+perClient)
	res := &e2eRun{ops: 2 * perClient}
	var d *daemon
	var cs []*client
	var err error
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		d, err = startDaemon(bin, w.daemonArgs())
		if err != nil {
			return nil, err
		}
		cs = []*client{newClient(0, d.base), newClient(1, d.base)}
		if err := w.setup(cs); err != nil {
			d.kill()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		for k := 0; k < w.warmup(); k++ {
			round(w, cs, k, false, false)
		}
		res.setups = append(res.setups, time.Since(t0))
		if rep < reps-1 {
			for _, c := range cs {
				c.close()
				res.allClients = append(res.allClients, c)
			}
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	if traced {
		res.varsBefore = fetch(d.base + "/debug/vars")
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		d.kill()
		return nil, err
	}
	start := time.Now()
	for j := 0; j < perClient; j++ {
		round(w, cs, w.warmup()+j, true, scrapeAfter(j, perClient))
	}
	res.wall = time.Since(start)
	cpu1, err := d.cpuTime()
	if err != nil {
		d.kill()
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	if res.peakRSS, err = d.peakRSSMiB(); err != nil {
		d.kill()
		return nil, err
	}
	if traced {
		res.varsAfter = fetch(d.base + "/debug/vars")
		res.metricsText = fetch(d.base + "/metrics")
	}
	res.checkErr = w.check(cs)
	for _, c := range cs {
		c.close()
	}
	res.clients = cs
	res.allClients = append(res.allClients, cs...)
	res.daemonStopErr = d.stop()
	return res, nil
}

// round is one step of the closed loop: both clients issue op k; once
// both have answered, both issue their read, and client 0 scrapes
// /metrics when scrape is set. Reads and scrapes thus never queue behind
// the other client's op for a processor, which on two cores would make
// their latency mostly a measure of that contention.
func round(w workload, cs []*client, k int, timed, scrape bool) {
	parallel(cs, func(c *client) { w.op(c, k, timed) })
	parallel(cs, func(c *client) {
		w.read(c, k, timed)
		if scrape && c.id == 0 {
			if _, lat, ok := c.do("GET", "/metrics", nil, nil, http.StatusOK); ok {
				c.scrapeLat = append(c.scrapeLat, lat)
			}
		}
	})
}

// parallel runs f once per client, each on its own goroutine, and waits.
func parallel(cs []*client, f func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// fetch GETs a diagnostic endpoint outside the clients' accounting; nil on
// any error.
func fetch(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	return b
}
