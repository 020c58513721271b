package main

import (
	"bytes"
	"testing"
	"time"
)

// streams renders every generated request stream of a seed into one byte
// sequence per workload.
func streams(seed int64, ops int) map[string][]byte {
	out := map[string][]byte{}
	for _, name := range []string{"topology-cold", "session-churn", "simulate"} {
		w, err := workloadByName(name)
		if err != nil {
			panic(err)
		}
		w.prepare(seed, ops)
		var b bytes.Buffer
		switch w := w.(type) {
		case *topologyCold:
			for c := range w.bodies {
				for _, body := range w.bodies[c] {
					b.Write(body)
				}
			}
		case *sessionChurn:
			for _, p := range w.plans {
				b.Write(p.create)
				for _, batch := range p.batches {
					b.Write(batch)
				}
			}
		case *simulateWL:
			for c := range w.bodies {
				for _, body := range w.bodies[c] {
					b.Write(body)
				}
			}
		}
		out[name] = b.Bytes()
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b, c := streams(7, 6), streams(7, 6), streams(8, 6)
	for name := range a {
		if len(a[name]) == 0 {
			t.Fatalf("%s: empty request stream", name)
		}
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: same seed gave different request streams", name)
		}
		if bytes.Equal(a[name], c[name]) {
			t.Errorf("%s: different seeds gave identical request streams", name)
		}
	}
}

// A longer run must replay the shorter run's inputs as its prefix, so the
// op count alone sets what a run sends.
func TestLongerRunExtendsStream(t *testing.T) {
	short, long := &sessionChurn{side: 20}, &sessionChurn{side: 20}
	short.prepare(3, 4)
	long.prepare(3, 9)
	for c := range short.plans {
		for k, batch := range short.plans[c].batches {
			if !bytes.Equal(batch, long.plans[c].batches[k]) {
				t.Fatalf("client %d batch %d differs between run lengths", c, k)
			}
		}
	}
}

func TestBatchesKeepNodeCountAndIDsValid(t *testing.T) {
	w := &sessionChurn{side: 18}
	w.prepare(11, 50)
	for _, p := range w.plans {
		if len(p.final) != len(p.initial) {
			t.Fatalf("node count drifted from %d to %d", len(p.initial), len(p.final))
		}
		seen := map[gridPt]bool{}
		for _, q := range p.final {
			if seen[q] {
				t.Fatalf("duplicate position %v", q)
			}
			seen[q] = true
		}
		n := len(p.initial)
		for _, batch := range p.batches {
			evs, err := decodeBatch(batch)
			if err != nil || len(evs) != batchSize {
				t.Fatalf("batch decodes to %d events: %v", len(evs), err)
			}
			for _, ev := range evs {
				switch ev.Op {
				case "join":
					n++
				case "leave", "move":
					if ev.Node < 0 || ev.Node >= n {
						t.Fatalf("%s names node %d of %d", ev.Op, ev.Node, n)
					}
					if ev.Op == "leave" {
						n--
					}
				default:
					t.Fatalf("unknown op %q", ev.Op)
				}
			}
		}
	}
}

func TestScrapeScheduleByOpCount(t *testing.T) {
	for _, ops := range []int{1, 10, 24, 25, 100, 301, 1000} {
		var at []int
		for j := 0; j < ops; j++ {
			if scrapeAfter(j, ops) {
				at = append(at, j)
			}
		}
		want := scrapesPerRun
		if ops < scrapesPerRun {
			want = ops
		}
		if len(at) != want {
			t.Errorf("ops=%d: %d scrapes, want %d", ops, len(at), want)
		}
		for i := 1; i < len(at); i++ {
			if at[i]-at[i-1] != at[1]-at[0] {
				t.Errorf("ops=%d: uneven scrape spacing %v", ops, at)
				break
			}
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	cases := map[int]float64{10: 50, 20: 50, 40: 75, 100: 90, 200: 95, 900: 98, 1000: 99, 2000: 99.5, 10000: 99.9}
	for n, want := range cases {
		p := tailPercentile(n)
		if p != want {
			t.Errorf("n=%d: tail p%g, want p%g", n, p, want)
		}
		if beyond := n - rank(n, p); beyond < minBeyondTail && p != 50 {
			t.Errorf("n=%d: p%g has %d samples beyond it", n, p, beyond)
		}
		for _, higher := range tailPercentiles {
			if higher > p && n-rank(n, higher) >= minBeyondTail {
				t.Errorf("n=%d: p%g also has ≥%d beyond, so p%g is not the highest", n, higher, minBeyondTail, p)
			}
		}
	}
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	s := summarize(ds)
	if s.tailP != 99 || s.tail != 990 || s.p50 != 500 {
		t.Errorf("summary of 1..1000 ms: p50 %v, p%g %v", s.p50, s.tailP, s.tail)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	l := &spanLog{cursor: map[int]int64{}}
	l.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	self := l.self()
	if got, want := self[1], time.Duration(100-50-10); got != want {
		t.Errorf("parent self %v, want %v", got, want)
	}
	l.derive(2, "x", "telemetry", 5)
	l.derive(2, "y", "telemetry", 7)
	x, y := l.spans[4], l.spans[5]
	if x.Start != 10 || x.End != 15 || y.Start != 15 || y.End != 22 {
		t.Errorf("derived children not laid end to end: %+v %+v", x, y)
	}
}
