package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

var testSchema = catalog.NewSchema(
	catalog.Column{Name: "K", Type: value.Int},
	catalog.Column{Name: "N", Type: value.Int},
)

func kn(k, n int64) value.Tuple { return value.Tuple{value.NewInt(k), value.NewInt(n)} }

// testHub serves one view "V" (equivalence node 1) seeded with the rows
// (k, 0) for k < rows.
func testHub(tb testing.TB, rows int, feed *wal.FeedLog) *Hub {
	tb.Helper()
	rel, err := storage.NewStore().Create(&catalog.TableDef{Name: "V", Schema: testSchema})
	if err != nil {
		tb.Fatal(err)
	}
	tuples := make([]value.Tuple, rows)
	for k := range tuples {
		tuples[k] = kn(int64(k), 0)
	}
	rel.LoadTuples(tuples)
	h, err := NewHub(HubConfig{Views: []ViewSource{{Name: "V", Schema: testSchema, EqID: 1, Rel: rel}}, Feed: feed})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { h.Close() })
	return h
}

// insertWindow is a window that inserts (k, 0) into V.
func insertWindow(seq uint64, k int64) maintain.WindowUpdate {
	d := delta.New(testSchema)
	d.Insert(kn(k, 0), 1)
	return maintain.WindowUpdate{Seq: seq, Txns: 1, Deltas: map[int]*delta.Delta{1: d}}
}

// oneRowWindows returns a generator of hub-side one-row windows on a
// testHub view: each moves a random row (k, n) to (k, n+1).
func oneRowWindows(vs *viewState, rows int) func() ownedWindow {
	n := make([]int64, rows)
	rng := rand.New(rand.NewSource(1))
	seq := uint64(0)
	return func() ownedWindow {
		k := rng.Intn(rows)
		seq++
		n[k]++
		return ownedWindow{windowSeq: seq, txns: 1, views: []ownedViewDelta{{state: vs,
			changes: []Change{{Old: kn(int64(k), n[k]-1), New: kn(int64(k), n[k]), Count: 1}}}}}
	}
}

// published reports whether V's current epoch is the one of feed seq.
func published(h *Hub, seq uint64) func() bool {
	return func() bool {
		ep, _ := h.Current("V")
		return ep.Seq == seq
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestStatsWhileWindowsLand polls Stats while the hub goroutine
// publishes; under -race it fails if the feed sequence is read unsafely.
func TestStatsWhileWindowsLand(t *testing.T) {
	const windows = 300
	h := testHub(t, 100, nil)
	stop := make(chan struct{})
	var polls sync.WaitGroup
	polls.Add(1)
	go func() {
		defer polls.Done()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := h.Stats()
			if st.FeedSeq < last || st.FeedSeq > windows {
				t.Errorf("feed seq %d after %d", st.FeedSeq, last)
			}
			last = st.FeedSeq
		}
	}()
	for i := 0; i < windows; i++ {
		h.OnWindow(insertWindow(uint64(i+1), int64(1000+i)))
	}
	waitFor(t, "every window", published(h, windows))
	close(stop)
	polls.Wait()
	if ep, _ := h.Current("V"); ep.Len() != 100+windows {
		t.Fatalf("view has %d rows, want %d", ep.Len(), 100+windows)
	}
}

// stallFS stalls every feed-log write while its gate is closed.
type stallFS struct {
	wal.FS
	mu      sync.Mutex
	gate    chan struct{}
	stalled chan struct{} // receives once per stalled write
}

func (f *stallFS) stall() {
	f.mu.Lock()
	f.gate = make(chan struct{})
	f.mu.Unlock()
}

func (f *stallFS) release() {
	f.mu.Lock()
	close(f.gate)
	f.gate = nil
	f.mu.Unlock()
}

func (f *stallFS) OpenAppend(path string) (wal.File, error) {
	file, err := f.FS.OpenAppend(path)
	return stallFile{File: file, fs: f}, err
}

type stallFile struct {
	wal.File
	fs *stallFS
}

func (s stallFile) Write(p []byte) (int, error) {
	s.fs.mu.Lock()
	gate := s.fs.gate
	s.fs.mu.Unlock()
	if gate != nil {
		s.fs.stalled <- struct{}{}
		<-gate
	}
	return s.File.Write(p)
}

// TestBackpressureBlocksWriter stalls the feed log so the hub stops
// draining, fills the queue, and checks that the next window blocks the
// writer until the hub drains — or until Close wakes it.
func TestBackpressureBlocksWriter(t *testing.T) {
	for _, wake := range []string{"drain", "close"} {
		t.Run(wake, func(t *testing.T) {
			fs := &stallFS{FS: wal.OSFS{}, stalled: make(chan struct{}, 1)}
			feed, err := wal.OpenFeedLog(fs, t.TempDir(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			h := testHub(t, 10, feed)
			fs.stall()
			h.OnWindow(insertWindow(1, 100))
			<-fs.stalled // the hub goroutine holds window 1 inside Append
			for i := 0; i < maxQueue; i++ {
				h.OnWindow(insertWindow(uint64(i+2), int64(101+i)))
			}
			before := obsBackpressure.Value()
			returned := make(chan struct{})
			go func() {
				h.OnWindow(insertWindow(maxQueue+2, 99))
				close(returned)
			}()
			waitFor(t, "the backpressure counter", func() bool { return obsBackpressure.Value() > before })
			select {
			case <-returned:
				t.Fatal("OnWindow returned with the queue full")
			case <-time.After(20 * time.Millisecond):
			}
			if d := h.Stats().QueueDepth; d != maxQueue {
				t.Fatalf("queue depth %d, want %d", d, maxQueue)
			}

			if wake == "close" {
				closed := make(chan error)
				go func() { closed <- h.Close() }()
				<-returned // Close wakes the writer while the hub is still stalled
				fs.release()
				if err := <-closed; err != nil {
					t.Fatal(err)
				}
				if seq := h.Stats().FeedSeq; seq != maxQueue+1 {
					t.Fatalf("closed hub journaled %d windows, want the %d queued before Close", seq, maxQueue+1)
				}
				return
			}
			fs.release()
			<-returned
			waitFor(t, "the queue to drain", published(h, maxQueue+2))
			if ep, _ := h.Current("V"); ep.Len() != 10+maxQueue+2 {
				t.Fatalf("view has %d rows, want %d", ep.Len(), 10+maxQueue+2)
			}
		})
	}
}

// publishAllocs measures the allocations of a one-row publish on a view
// of the given size, calling process directly on the idle hub.
func publishAllocs(t *testing.T, rows int) float64 {
	h := testHub(t, rows, nil)
	next := oneRowWindows(h.views["V"], rows)
	windows := make([]ownedWindow, 101) // AllocsPerRun adds one warm-up run
	for i := range windows {
		windows[i] = next()
	}
	return testing.AllocsPerRun(100, func() {
		h.process(windows[0])
		windows = windows[1:]
	})
}

// TestPublishAllocsIndependentOfViewSize is the scaling guard: a
// one-row publish must not allocate in proportion to |V|.
func TestPublishAllocsIndependentOfViewSize(t *testing.T) {
	small, large := publishAllocs(t, 1000), publishAllocs(t, 100000)
	t.Logf("allocations per one-row publish: %.1f at |V|=1k, %.1f at |V|=100k", small, large)
	if large > 2*small {
		t.Fatalf("one-row publish allocates %.1f at |V|=100k, more than 2× the %.1f at |V|=1k", large, small)
	}
}

// BenchmarkHubPublish is the serving-epoch scaling sweep: one-row
// windows folded and published on views of 1k to 1M rows. It reports
// ns/window and the heap each retained epoch keeps alive.
func BenchmarkHubPublish(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("%dk", rows/1000), func(b *testing.B) {
			h := testHub(b, rows, nil)
			vs := h.views["V"]
			next := oneRowWindows(vs, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.process(next())
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/window")
			b.ReportMetric(retainedPerEpoch(h, vs), "B/epoch")
		})
	}
}

// retainedPerEpoch is the live heap the retention ring holds beyond the
// current epoch, per retained epoch.
func retainedPerEpoch(h *Hub, vs *viewState) float64 {
	var ms runtime.MemStats
	heap := func() float64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	h.mu.Lock()
	ring := vs.ring
	h.mu.Unlock()
	if len(ring) < 2 {
		return 0
	}
	full := heap()
	h.mu.Lock()
	vs.ring = []*Epoch{vs.cur.Load()}
	h.mu.Unlock()
	n := len(ring) - 1
	ring = nil
	return max(full-heap(), 0) / float64(n)
}
