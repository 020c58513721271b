package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run records one span around each call the replay makes into a
// layer's public API. Spans are held in memory and written out as JSONL
// when the run ends. Where a layer already times a phase into the
// Telemetry the replay passes in (topology.phase1/phase2, topology.repair,
// sim.run), the replay reads that timer and records it as a child span of
// the call that ran it; the program itself gains no instrumentation.

// span is one recorded call. Start and End are nanoseconds since the
// replay began; Parent is the id of the enclosing span (0 for a root).
// Derived spans carry the source of their duration: "telemetry" for a
// phase timer read back from the layer's own Telemetry, "direct" for a
// layer without a timer whose cost was taken from a direct call on the
// same input.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	From   string `json:"from,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type spanLog struct {
	t0    time.Time
	spans []span
	// cursor is where the next derived child of a span starts.
	cursor map[int]int64
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), cursor: map[int]int64{}} }

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// start opens a span and returns its id.
func (l *spanLog) start(name string, parent, op int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: l.now()})
	return id
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id-1]
	s.End = l.now()
	return s.dur()
}

// call records f as one span.
func (l *spanLog) call(name string, parent, op int, f func()) time.Duration {
	id := l.start(name, parent, op)
	f()
	return l.end(id)
}

// derive adds a child of parent with a duration known from elsewhere,
// laid end to end with the parent's other derived children.
func (l *spanLog) derive(parent int, name, from string, d time.Duration) {
	p := l.spans[parent-1]
	at, ok := l.cursor[parent]
	if !ok {
		at = p.Start
	}
	l.cursor[parent] = at + int64(d)
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Op: p.Op, Start: at, End: at + int64(d), From: from})
}

// self returns each span's self time: its duration minus the part of its
// interval that its children cover.
func (l *spanLog) self() map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(l.spans))
	for _, s := range l.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// byName returns the durations (ms) of the spans with the given name whose
// op index passes keep.
func (l *spanLog) byName(name string, keep func(op int) bool) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && keep(s.Op) {
			out = append(out, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return out
}

// write stores every span as JSONL under dir.
func (l *spanLog) write(dir, wl string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(l.spans), path)
	return nil
}
