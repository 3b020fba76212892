package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// samples is a set of raw measurements. Quantiles are exact order
// statistics of the raw values (nearest rank), never bucket bounds.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// q returns the nearest-rank q-quantile (0 < q <= 1), or 0 with no
// samples.
func (s *samples) q(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.v, q)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// openLoop runs n ops at a fixed rate starting at start: op k is issued
// at its due time, or as soon as the previous op returns if that is
// later. Lateness (issue time minus due time) goes to late.
func openLoop(start time.Time, rate float64, n int, late *samples, op func(k int, due time.Time)) {
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		// A timer sleep on a shared VM overshoots by ≈ 0.3 ms at the
		// median, which would land in every latency measured from the
		// due time; sleep to just short of it and yield until it passes.
		if d := time.Until(due) - timerSlack; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		late.addDur(time.Since(due), time.Millisecond)
		op(k, due)
	}
}

// halfPeriod offsets a second open loop by half its period, so its ops
// do not fall due at the same instants as the first loop's and contend
// for the CPU in lockstep.
func halfPeriod(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate / 2) }

// timerSlack is how early openLoop stops sleeping before a due time.
const timerSlack = time.Millisecond

// series splits an open loop's samples into equal rounds by due time.
// An end-to-end percentile is that of the least disturbed round: on a
// shared host, interference from outside the process only ever slows a
// round, so the fastest round is the steadiest estimate of what the
// program itself costs. The pooled samples still give the tails.
type series struct {
	start  time.Time
	round  time.Duration
	rounds []samples
}

// benchRounds is the number of rounds each timed phase is split into.
const benchRounds = 10

func newSeries(start time.Time, phase time.Duration) *series {
	return &series{start: start, round: phase / benchRounds, rounds: make([]samples, benchRounds)}
}

// add records v for an op that was due at due.
func (s *series) add(due time.Time, v float64) {
	i := int(due.Sub(s.start) / s.round)
	s.rounds[min(max(i, 0), len(s.rounds)-1)].add(v)
}

func (s *series) addDur(due time.Time, d, unit time.Duration) {
	s.add(due, float64(d)/float64(unit))
}

// perRound is the q-quantile of each round.
func (s *series) perRound(q float64) []float64 {
	per := make([]float64, len(s.rounds))
	for i := range s.rounds {
		per[i] = s.rounds[i].q(q)
	}
	return per
}

// all pools every round's samples.
func (s *series) all() []float64 {
	var v []float64
	for i := range s.rounds {
		r := &s.rounds[i]
		r.mu.Lock()
		v = append(v, r.v...)
		r.mu.Unlock()
	}
	return v
}

func (s *series) n() int {
	n := 0
	for i := range s.rounds {
		n += s.rounds[i].n()
	}
	return n
}

// throughput counts an open loop's committed txns. Its rate is set by
// the schedule, so it has no per-round view to take the best of: the
// rate only drops when the program falls behind.
type throughput struct {
	mu    sync.Mutex
	start time.Time
	txns  int
	last  time.Time
}

func newThroughput(start time.Time) *throughput { return &throughput{start: start} }

// add records txns committed by an op that finished at done.
func (t *throughput) add(done time.Time, txns int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.txns += txns
	if done.After(t.last) {
		t.last = done
	}
}

// overall is the committed txns per second from the start of the phase
// to the last completion.
func (t *throughput) overall() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.txns) / t.last.Sub(t.start).Seconds()
}

// metric is one reported number. N is the sample count behind a
// percentile (0 for counts, ratios and single measurements).
type metric struct {
	Name   string
	Unit   string
	Value  float64
	N      int
	Rounds []float64 // per-round values the best was taken from
}

// report collects one run's outcome: the metrics of both kinds, the
// correctness checks and the op accounting.
type report struct {
	workload  string
	e2e       []metric
	layer     []metric
	checks    []check
	attempted int64
	failed    int64
	failNotes []string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (r *report) addE2E(name, unit string, v float64, n int) {
	r.e2e = append(r.e2e, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (r *report) addLayer(name, unit string, v float64, n int) {
	r.layer = append(r.layer, metric{Name: name, Unit: unit, Value: v, N: n})
}

// pctRounds adds an end-to-end percentile: that of the fastest round.
func (r *report) pctRounds(name, unit string, s *series, q float64) {
	per := s.perRound(q)
	r.e2e = append(r.e2e, metric{name, unit, slices.Min(per), s.n(), per})
}

// pctPooled adds a per-layer percentile over every sample of the phase.
func (r *report) pctPooled(name, unit string, s *series, q float64) {
	r.layer = append(r.layer, metric{Name: name, Unit: unit, Value: quantile(s.all(), q), N: s.n()})
}

// pct adds a percentile metric taken from s, with its sample count.
func (r *report) pct(layer bool, name, unit string, s *samples, q float64) {
	m := metric{Name: name, Unit: unit, Value: s.q(q), N: s.n()}
	if layer {
		r.layer = append(r.layer, m)
	} else {
		r.e2e = append(r.e2e, m)
	}
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// fail counts one failed op, keeping the first few reasons for the log.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failNotes) < 10 {
		r.failNotes = append(r.failNotes, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// median returns the median of a few repeated measurements.
func median(v []float64) float64 { return quantile(v, 0.5) }

// counters snapshots the program's obs counters (read only).
func counters() map[string]int64 { return obs.Default.Snapshot().Counters }

// runtimeWindow brackets a timed phase with runtime.MemStats reads so
// allocation and GC can be charged per transaction. The GC pauses come
// from the runtime's raw pause ring, not from a histogram.
type runtimeWindow struct {
	before runtime.MemStats
}

func startRuntimeWindow() *runtimeWindow {
	w := &runtimeWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// finish adds runtime.* per-layer metrics for txns committed in the
// window.
func (w *runtimeWindow) finish(r *report, txns int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	t := math.Max(1, float64(txns))
	r.addLayer("runtime.allocs_per_txn", "count", float64(after.Mallocs-w.before.Mallocs)/t, 0)
	r.addLayer("runtime.bytes_per_txn", "B", float64(after.TotalAlloc-w.before.TotalAlloc)/t, 0)
	gcs := after.NumGC - w.before.NumGC
	r.addLayer("runtime.gc_per_10k_txns", "count", float64(gcs)*1e4/t, 0)
	var pauses samples
	n := gcs
	if n > uint32(len(after.PauseNs)) {
		n = uint32(len(after.PauseNs))
	}
	for i := uint32(0); i < n; i++ {
		idx := (after.NumGC - 1 - i) % uint32(len(after.PauseNs))
		pauses.add(float64(after.PauseNs[idx]) / 1e3)
	}
	r.pct(true, "runtime.gc_pause_p99_us", "us", &pauses, 0.99)
}

// liveHeapMB is the heap in use after a full collection: the space the
// maintained state (base relations, views, retained epochs) occupies.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
