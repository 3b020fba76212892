package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Seq is the write's sequence number:
// every span a write causes carries it, including the asynchronous hub
// and SSE spans, which find it through the window sequence.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	upTo  atomic.Uint64 // once set, only spans of writes 1..upTo are kept
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is a started span.
type active struct {
	t      *tracer
	id     uint64
	parent uint64
	seq    uint64
	name   string
	start  time.Time
}

func (t *tracer) start(name string, parent, seq uint64) active {
	if t == nil {
		return active{}
	}
	return active{t: t, id: t.next.Add(1), parent: parent, seq: seq, name: name, start: time.Now()}
}

// end records the span and returns its duration.
func (a active) end() time.Duration {
	if a.t == nil {
		return 0
	}
	now := time.Now()
	a.t.add(a.id, a.parent, a.seq, a.name, a.start, now)
	return now.Sub(a.start)
}

// record stores a span whose bounds were taken elsewhere (for example a
// publish that starts on the writer and ends on a subscriber).
func (t *tracer) record(name string, parent, seq uint64, start, end time.Time) {
	if t != nil {
		t.add(t.next.Add(1), parent, seq, name, start, end)
	}
}

// keepUpTo ends recording when a measured phase ends, except for the
// asynchronous tail (hub publish, SSE delivery) of writes 1..seq: spans
// of later writes, and spans that belong to no write, are dropped.
func (t *tracer) keepUpTo(seq uint64) {
	if t != nil {
		t.upTo.Store(seq)
	}
}

// keeps reports whether a span of write seq is still recorded.
func (t *tracer) keeps(seq uint64) bool {
	limit := t.upTo.Load()
	return limit == 0 || (seq > 0 && seq <= limit)
}

func (t *tracer) add(id, parent, seq uint64, name string, start, end time.Time) {
	if !t.keeps(seq) {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Seq: seq, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string, unit time.Duration) *samples {
	s := &samples{}
	if t == nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if sp.Name == name {
			s.v = append(s.v, float64(sp.End-sp.Start)/float64(unit))
		}
	}
	return s
}

// selfTimes sums, per span name, the span's duration minus the part of
// its interval covered by its children.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][][2]int64{}
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	for _, sp := range t.spans {
		out[sp.Name] += time.Duration(sp.End - sp.Start - covered(kids[sp.ID], sp.Start, sp.End))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cur int64 = 0, lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// dump writes every span as JSON under dir and prints the per-layer
// self-time table.
func (t *tracer) dump(dir, workload string, seed int64) error {
	if t == nil {
		return nil
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("  self  %-28s %10.3f ms\n", n, float64(self[n])/1e6)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	fmt.Printf("  %d spans written to %s\n", len(t.spans), path)
	return os.WriteFile(path, data, 0o644)
}
