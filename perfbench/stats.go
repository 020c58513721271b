package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank p-th percentile of sorted (p in (0,100]).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	// The epsilon absorbs binary rounding of p (99.9 × 10000 must be rank
	// 9990, not 9991).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// minBeyondTail is how many samples must lie beyond the tail percentile.
const minBeyondTail = 10

// tailPercentile returns the highest candidate percentile with at least
// minBeyondTail of n samples ranked above it; 50 when none qualifies.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= minBeyondTail {
			return p
		}
	}
	return 50
}

// latencySummary is one latency series: its median and tail (with the
// percentile and sample count that qualify the tail).
type latencySummary struct {
	n            int
	p50, tail    float64 // ms
	tailP        float64
	sortedMillis []float64
}

func summarize(ds []time.Duration) latencySummary {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	tp := tailPercentile(len(ms))
	return latencySummary{n: len(ms), p50: percentile(ms, 50), tail: percentile(ms, tp), tailP: tp, sortedMillis: ms}
}

func (s latencySummary) String() string {
	return fmt.Sprintf("p50 %.4f ms, p%g %.4f ms (%d samples; p10/p25/p75/p90 %.4f/%.4f/%.4f/%.4f ms; mean %.4f ms)",
		s.p50, s.tailP, s.tail, s.n, percentile(s.sortedMillis, 10), percentile(s.sortedMillis, 25),
		percentile(s.sortedMillis, 75), percentile(s.sortedMillis, 90), mean(s.sortedMillis))
}

// scrapesPerRun is how many GET /metrics probes client 0 issues in the
// timed region, at fixed op indices.
const scrapesPerRun = 96

// scrapeAfter reports whether client 0 scrapes /metrics right after its
// timed op j of ops: every ops/scrapesPerRun ops, so the schedule — and
// the histogram state each scrape sees — depends on the op count alone.
func scrapeAfter(j, ops int) bool {
	every := ops / scrapesPerRun
	if every < 1 {
		every = 1
	}
	return (j+1)%every == 0 && (j+1)/every <= scrapesPerRun
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
