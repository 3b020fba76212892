package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mvmaint "repro"
	"repro/internal/delta"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/value"
)

// serve_bigview: one large served view, read far more than written. The
// hub's per-window fold, snapshot and retention are O(|V|), so they and
// the read path do almost all the work; writes are pre-built one-row
// txns that need no SQL.
const (
	bigRows      = 5000
	bigWriteRate = 50.0  // writes/s, in process through Serving.ExecuteTxn
	bigReadRate  = 100.0 // reads/s, one HTTP connection
	bigPage      = 100
	bigPinShare  = 0.2         // share of reads that re-read a pinned epoch
	bigPinAge    = time.Second // a pinned epoch is at most this old
	bigSetups    = 9
)

const bigDDL = `
CREATE TABLE Emp (EName VARCHAR(20) PRIMARY KEY, DName VARCHAR(20), Salary INT);
CREATE INDEX emp_dname ON Emp (DName);
CREATE INDEX emp_ename ON Emp (EName);
CREATE VIEW Directory (EName, DName, Salary) AS
SELECT EName, DName, Salary FROM Emp WHERE Salary > 0;
`

var bigSalary = &txn.Type{Name: ">Emp.Salary", Weight: 1, Updates: []txn.RelUpdate{
	{Rel: "Emp", Kind: txn.Modify, Size: 1, Cols: []string{"Salary"}}}}

func bigEmp(i int) string  { return fmt.Sprintf("e%06d", i) }
func bigDept(i int) string { return fmt.Sprintf("d%04d", i/10) }

// bigGen holds the salaries the generated stream implies.
type bigGen struct {
	rng    *rand.Rand
	salary []int64
}

func newBigGen(seed int64) *bigGen {
	g := &bigGen{rng: rand.New(rand.NewSource(seed)), salary: make([]int64, bigRows)}
	for i := range g.salary {
		g.salary[i] = 50 + g.rng.Int63n(150)
	}
	return g
}

// script loads every row with one multi-row INSERT.
func (g *bigGen) script() string {
	var b strings.Builder
	b.WriteString("INSERT INTO Emp VALUES ")
	for i, s := range g.salary {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "('%s', '%s', %d)", bigEmp(i), bigDept(i), s)
	}
	b.WriteString(";\n")
	return b.String()
}

func bigTuple(i int, s int64) value.Tuple {
	return value.Tuple{value.NewString(bigEmp(i)), value.NewString(bigDept(i)), value.NewInt(s)}
}

func bigJSON(i int, s int64) string {
	return fmt.Sprintf(`["%s","%s",%d]`, bigEmp(i), bigDept(i), s)
}

// bigWrite is one pre-built salary change and the row it produces.
type bigWrite struct {
	updates map[string]*delta.Delta
	row     string
}

func (g *bigGen) next(db *mvmaint.DB) bigWrite {
	i := g.rng.Intn(bigRows)
	old := g.salary[i]
	s := 50 + g.rng.Int63n(150)
	if s == old {
		s = 200
	}
	g.salary[i] = s
	d := delta.New(db.Catalog.MustGet("Emp").Schema)
	d.Modify(bigTuple(i, old), bigTuple(i, s), 1)
	return bigWrite{updates: map[string]*delta.Delta{"Emp": d}, row: bigJSON(i, s)}
}

func (g *bigGen) bag() rowBag {
	b := rowBag{}
	for i, s := range g.salary {
		b[bigJSON(i, s)] = 1
	}
	return b
}

// bigSystem is one set-up serve_bigview system.
type bigSystem struct {
	gen *bigGen
	db  *mvmaint.DB
	sys *mvmaint.System
	sv  *mvmaint.Serving
	hs  *httpServer
	th  *timingHandler
}

func setupBig(seed int64, tr *tracer) (*bigSystem, error) {
	b := &bigSystem{gen: newBigGen(seed), db: mvmaint.Open()}
	script := b.gen.script()
	if err := b.db.Exec(bigDDL); err != nil {
		return nil, fmt.Errorf("ddl: %w", err)
	}
	sp := tr.start("sqlparser.load", 0, 0)
	if err := b.db.Exec(script); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	sp.end()
	sp = tr.start("core.build", 0, 0)
	sys, err := b.db.Build([]string{"Directory"}, mvmaint.Config{
		Workload: []*txn.Type{bigSalary}, Method: mvmaint.Exhaustive})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	sp.end()
	b.sys = sys
	if b.sv, err = sys.NewServing(mvmaint.ServeOptions{}); err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	var h http.Handler = b.sv.Server
	if tr != nil {
		b.th = &timingHandler{inner: b.sv.Server, tr: tr}
		h = b.th
	}
	b.hs, err = startHTTP(h)
	return b, err
}

func (b *bigSystem) close() error {
	b.hs.close()
	return b.sv.Close()
}

// pinnedRead is a page read kept for a later re-read at its epoch.
type pinnedRead struct {
	at     time.Time
	epoch  uint64
	offset int
	body   []byte
}

func runBigView(cfg config, tr *tracer) (*report, error) {
	rep := &report{}
	var setups []float64
	var b *bigSystem
	for i := 0; i < bigSetups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
			b = nil
		}
		runtime.GC()
		t0 := processCPU()
		var err error
		if b, err = setupBig(cfg.seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, (processCPU() - t0).Seconds())
	}
	defer b.close()
	if tr != nil {
		obs.Trace = obs.NewTracer(1 << 18)
	}

	var writeSeq atomic.Uint64
	var probe *hubProbe
	if tr != nil {
		var err error
		if probe, err = installHubProbe(tr, b.sys.M, b.sv.Hub, "Directory", writeSeq.Load); err != nil {
			return nil, err
		}
	}

	n := int(bigWriteRate * cfg.seconds)
	writes := make([]bigWrite, n)
	for i := range writes {
		writes[i] = b.gen.next(b.db)
	}
	dues := make([]time.Time, n)

	var (
		mu                 sync.Mutex
		late               samples
		received, bad      int
		ack, visible, read *series
		committed          *throughput
	)
	reader := client()
	first, err := getView(reader, b.hs.base, "Directory", "limit=1000000")
	if err != nil {
		return nil, err
	}
	fold := first.bag()
	sse, err := subscribeSSE(b.hs.base, "Directory", func(ev *feedEvent) {
		probe.delivered(ev)
		mu.Lock()
		defer mu.Unlock()
		ev.fold(fold)
		k := received
		received++
		if k >= n || len(ev.Changes) != 1 || string(ev.Changes[0].New) != writes[k].row {
			bad++
			return
		}
		visible.addDur(dues[k], ev.at.Sub(dues[k]), time.Millisecond)
	})
	if err != nil {
		return nil, err
	}

	phase := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now().Add(10 * time.Millisecond)
	mu.Lock()
	ack, visible, read = newSeries(start, phase), newSeries(start, phase), newSeries(start, phase)
	committed = newThroughput(start)
	mu.Unlock()
	c0 := counters()
	io0 := b.db.Store.IO.Total()
	rw := startRuntimeWindow()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.seed + 1))
		var pins []pinnedRead
		openLoop(start.Add(halfPeriod(bigReadRate)), bigReadRate, int(bigReadRate*cfg.seconds), &late, func(k int, due time.Time) {
			for len(pins) > 0 && time.Since(pins[0].at) > bigPinAge {
				pins = pins[1:]
			}
			var q string
			var pin *pinnedRead
			off := rng.Intn(bigRows - bigPage + 1)
			if len(pins) > 0 && rng.Float64() < bigPinShare {
				pin = &pins[rng.Intn(len(pins))]
				q = fmt.Sprintf("epoch=%d&offset=%d&limit=%d", pin.epoch, pin.offset, bigPage)
			} else {
				q = fmt.Sprintf("offset=%d&limit=%d", off, bigPage)
			}
			body, err := get(reader, b.hs.base, "Directory", q)
			now := time.Now()
			epoch, rows := pageInfo(body)
			mu.Lock()
			defer mu.Unlock()
			rep.attempted++
			switch {
			case err != nil:
				rep.fail("read %s: %v", q, err)
				return
			case pin != nil && !bytes.Equal(body, pin.body):
				rep.fail("pinned re-read %s differs from the first read", q)
				return
			case rows != bigPage:
				rep.fail("read %s: %d rows", q, rows)
				return
			}
			read.addDur(due, now.Sub(due), time.Millisecond)
			if pin == nil {
				pins = append(pins, pinnedRead{at: now, epoch: epoch, offset: off, body: body})
			}
		})
	}()
	openLoop(start, bigWriteRate, n, &late, func(k int, due time.Time) {
		mu.Lock()
		dues[k] = due
		mu.Unlock()
		writeSeq.Store(uint64(k + 1))
		sp := tr.start("serving.execute_txn", 0, uint64(k+1))
		_, err := b.sv.ExecuteTxn(bigSalary, writes[k].updates)
		sp.end()
		mu.Lock()
		defer mu.Unlock()
		rep.attempted++
		if err != nil {
			rep.fail("write %d: %v", k, err)
			return
		}
		now := time.Now()
		ack.addDur(due, now.Sub(due), time.Millisecond)
		committed.add(now, 1)
	})
	wg.Wait()
	rw.finish(rep, int64(n))
	c1 := counters()
	rep.addLayer("storage.page_io_per_txn", "count", float64(b.db.Store.IO.Total()-io0)/float64(n), 0)

	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		got := received
		mu.Unlock()
		if got >= n {
			break
		}
	}
	final, err := getView(reader, b.hs.base, "Directory", "limit=1000000")
	if err != nil {
		return nil, err
	}
	mu.Lock()
	rep.check("sse_fold_equals_epoch", received == n && diffBags(fold, final.bag()) == "",
		"%d/%d events; %s", received, n, orOK(diffBags(fold, final.bag())))
	rep.check("sse_events_match_writes", bad == 0, "%d events differ from the writes", bad)
	mu.Unlock()
	rep.check("epoch_equals_generator", diffBags(final.bag(), b.gen.bag()) == "",
		"%s", orOK(diffBags(final.bag(), b.gen.bag())))
	checkDrift(rep, b.sys)

	rep.addE2E("setup_s", "s", median(setups), len(setups))
	rep.addE2E("txns_per_s", "1/s", committed.overall(), 0)
	rep.pctRounds("ack_p50_ms", "ms", ack, 0.5)
	rep.pctPooled("loadgen.ack_p99_ms", "ms", ack, 0.99)
	rep.pctRounds("visible_p50_ms", "ms", visible, 0.5)
	rep.pctPooled("loadgen.visible_p99_ms", "ms", visible, 0.99)
	rep.pctRounds("read_p50_ms", "ms", read, 0.5)
	rep.pctPooled("loadgen.read_p99_ms", "ms", read, 0.99)
	rep.addE2E("live_heap_mb", "MB", liveHeapMB(), 0)

	rep.pct(true, "loadgen.late_p99_ms", "ms", &late, 0.99)
	layerCore(rep, b.sys)
	layerSQL(rep, tr)
	layerMaintain(rep, tr, "serving.execute_txn", c0, c1, int64(n))
	layerServer(rep, tr, probe)
	rep.addLayer("server.dirty_events", "count", float64(bad), 0)

	sse.stop()
	if sse.err != nil || sse.resets.Load() > 0 {
		rep.fail("SSE stream: err %v, %d resets", sse.err, sse.resets.Load())
	}
	probe.stop(b.sys.M)
	return rep, nil
}
