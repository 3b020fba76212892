package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	mvmaint "repro"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/txn"
	"repro/internal/wal"
)

// sql_oltp: the paper's §3.6 corporate instance behind the HTTP front
// door. Every write is one SQL statement in a POST /txn on one
// connection, durable (one fsync per txn) and checked against the
// DeptConstraint assertion; one SSE connection follows DeptPayroll and a
// second connection pages through it.
const (
	oltpDepts       = 1000
	oltpEmpsPerDept = 10
	oltpRate        = 60.0 // main phase writes/s
	oltpReadRate    = 60.0 // main phase reads/s
	oltpPage        = 100
	oltpSLOms       = 10.0
)

// oltpRungs are the fixed write rates of the SLO ladder, in txn/s; each
// rung runs for oltpRungTime after the main phase.
var oltpRungs = []float64{100, 200, 300, 400}

const oltpRungTime = 2 * time.Second

const oltpSchema = `
CREATE TABLE Dept (DName VARCHAR(20) PRIMARY KEY, MName VARCHAR(20), Budget INT);
CREATE TABLE Emp  (EName VARCHAR(20) PRIMARY KEY, DName VARCHAR(20), Salary INT);
CREATE INDEX dept_dname ON Dept (DName);
CREATE INDEX emp_dname  ON Emp (DName);
CREATE INDEX emp_ename  ON Emp (EName);
CREATE VIEW DeptPayroll (DName, Payroll) AS
SELECT Emp.DName, SUM(Salary) FROM Emp GROUP BY Emp.DName;
CREATE VIEW ProblemDept (DName) AS
SELECT Dept.DName FROM Emp, Dept
WHERE Dept.DName = Emp.DName
GROUP BY Dept.DName, Budget
HAVING SUM(Salary) > Budget;
CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (SELECT * FROM ProblemDept));
`

var (
	oltpNames    = []string{"DeptPayroll", "DeptConstraint"}
	oltpWorkload = []*txn.Type{
		{Name: ">Emp.Salary", Weight: 0.89, Updates: []txn.RelUpdate{
			{Rel: "Emp", Kind: txn.Modify, Size: 1, Cols: []string{"Salary"}}}},
		{Name: ">Dept.Budget", Weight: 0.11, Updates: []txn.RelUpdate{
			{Rel: "Dept", Kind: txn.Modify, Size: 1, Cols: []string{"Budget"}}}},
	}
)

func deptName(d int) string   { return fmt.Sprintf("d%04d", d) }
func empName(d, e int) string { return fmt.Sprintf("e%04d_%02d", d, e) }

// oltpWrite is one generated statement and the verdict the generator
// expects for it. A clean salary write changes one DeptPayroll row from
// old to payroll; other writes leave the view unchanged.
type oltpWrite struct {
	stmt         string
	reject       bool
	old, payroll string
}

// oltpGen tracks salaries and budgets, so it knows every verdict.
type oltpGen struct {
	rng    *rand.Rand
	salary [][]int64
	budget []int64
	sum    []int64
}

func newOLTPGen(seed int64) *oltpGen {
	g := &oltpGen{rng: rand.New(rand.NewSource(seed))}
	g.salary = make([][]int64, oltpDepts)
	g.budget = make([]int64, oltpDepts)
	g.sum = make([]int64, oltpDepts)
	for d := range g.salary {
		g.salary[d] = make([]int64, oltpEmpsPerDept)
		for e := range g.salary[d] {
			g.salary[d][e] = 80 + g.rng.Int63n(41)
			g.sum[d] += g.salary[d][e]
		}
		g.budget[d] = g.sum[d] + 200 + g.rng.Int63n(300)
	}
	return g
}

// script is the mvserve-style data script: one INSERT per row.
func (g *oltpGen) script() string {
	var b strings.Builder
	for d := 0; d < oltpDepts; d++ {
		fmt.Fprintf(&b, "INSERT INTO Dept VALUES ('%s', 'm%04d', %d);\n", deptName(d), d, g.budget[d])
		for e := 0; e < oltpEmpsPerDept; e++ {
			fmt.Fprintf(&b, "INSERT INTO Emp VALUES ('%s', '%s', %d);\n", empName(d, e), deptName(d), g.salary[d][e])
		}
	}
	return b.String()
}

func payrollTuple(d int, sum int64) string { return fmt.Sprintf(`["%s",%d]`, deptName(d), sum) }

// next draws one write: ≈85% clean salary updates, ≈11% clean budget
// updates, ≈4% salary updates that break DeptConstraint.
func (g *oltpGen) next() oltpWrite {
	d, e := g.rng.Intn(oltpDepts), g.rng.Intn(oltpEmpsPerDept)
	u := g.rng.Float64()
	others := g.sum[d] - g.salary[d][e]
	switch {
	case u < 0.85:
		return g.cleanSalary(d, e)
	case u < 0.96:
		b := g.sum[d] + 100 + g.rng.Int63n(400)
		if b == g.budget[d] {
			b++
		}
		g.budget[d] = b
		return oltpWrite{stmt: fmt.Sprintf("UPDATE Dept SET Budget = %d WHERE DName = '%s'", b, deptName(d))}
	default:
		s := g.budget[d] - others + 1 + g.rng.Int63n(100)
		return oltpWrite{stmt: fmt.Sprintf("UPDATE Emp SET Salary = %d WHERE EName = '%s'", s, empName(d, e)),
			reject: true}
	}
}

// clean draws a clean salary write.
func (g *oltpGen) clean() oltpWrite {
	return g.cleanSalary(g.rng.Intn(oltpDepts), g.rng.Intn(oltpEmpsPerDept))
}

// cleanSalary gives employee e of department d a new salary that keeps
// the department within its budget.
func (g *oltpGen) cleanSalary(d, e int) oltpWrite {
	others := g.sum[d] - g.salary[d][e]
	hi := min(g.budget[d]-others, 200)
	s := 50 + g.rng.Int63n(hi-49)
	if s == g.salary[d][e] {
		s = 50 + (s-50+1)%(hi-49)
	}
	w := oltpWrite{stmt: fmt.Sprintf("UPDATE Emp SET Salary = %d WHERE EName = '%s'", s, empName(d, e)),
		old: payrollTuple(d, g.sum[d])}
	g.salary[d][e] = s
	g.sum[d] = others + s
	w.payroll = payrollTuple(d, g.sum[d])
	return w
}

// payrollBag is DeptPayroll as the generator knows it.
func (g *oltpGen) payrollBag() rowBag {
	b := rowBag{}
	for d := range g.sum {
		b[payrollTuple(d, g.sum[d])] = 1
	}
	return b
}

// oltpRun is one set-up sql_oltp system and its clients.
type oltpRun struct {
	cfg config
	tr  *tracer
	rep *report
	gen *oltpGen
	dir string
	db  *mvmaint.DB
	sys *mvmaint.System
	mgr *wal.Manager
	sv  *mvmaint.Serving
	hs  *httpServer
	th  *timingHandler
	wfs *timingFS

	execMu sync.Mutex // serializes the traced exec hook and guards:
	icOK   samples    // µs
	icNo   samples
	io     [2]int64 // query and view page I/O of the traced execs

	mu      sync.Mutex
	feed    feedMatcher // DeptPayroll events against the committed writes
	fold    rowBag      // SSE-folded DeptPayroll
	visible *series     // main-phase visibility, ms
	seqNext uint64      // write sequence numbers
}

// feedMatcher pairs DeptPayroll feed events with the clean salary writes
// that cause them. The feed is in commit order and each such write
// changes exactly one row, so an event is either the change of the next
// write still waiting for one, or caused by no committed write (dirty).
// Events carry no key the /txn reply also returns, so the pairing is by
// content and order.
type feedMatcher struct {
	want    []feedChange
	matched int // want[:matched] have arrived
	dirty   int // events no committed write explains
}

// feedChange is the event a committed clean salary write causes.
type feedChange struct {
	old, new string
	due      time.Time
	main     bool // caused by a main-phase write
}

// expect queues the change of a write about to be sent. It is queued
// before the write, because its event may arrive before the reply.
func (f *feedMatcher) expect(c feedChange) { f.want = append(f.want, c) }

// observe matches one event; it returns the write's change if the event
// is the next one expected.
func (f *feedMatcher) observe(ev *feedEvent) (feedChange, bool) {
	if f.matched < len(f.want) {
		w := f.want[f.matched]
		if len(ev.Changes) == 1 && ev.Changes[0].Count == 1 &&
			string(ev.Changes[0].Old) == w.old && string(ev.Changes[0].New) == w.new {
			f.matched++
			return w, true
		}
	}
	f.dirty++
	return feedChange{}, false
}

func (o *oltpRun) setup() error {
	o.gen = newOLTPGen(o.cfg.seed)
	script := o.gen.script()
	o.db = mvmaint.Open()
	if err := o.db.Exec(oltpSchema); err != nil {
		return fmt.Errorf("ddl: %w", err)
	}
	sp := o.tr.start("sqlparser.load", 0, 0)
	if err := o.db.Exec(script); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	sp.end()
	sp = o.tr.start("core.build", 0, 0)
	sys, err := o.db.Build(oltpNames, mvmaint.Config{Workload: oltpWorkload, Method: mvmaint.Exhaustive})
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	sp.end()
	o.sys = sys
	if err := os.RemoveAll(o.dir); err != nil {
		return err
	}
	var fsys wal.FS = wal.OSFS{}
	if o.tr != nil {
		o.th = &timingHandler{tr: o.tr}
		o.wfs = &timingFS{FS: wal.OSFS{}, tr: o.tr, seqOf: func() uint64 { return o.th.txnSeq.Load() }}
		fsys = o.wfs
	}
	if o.mgr, err = sys.AttachDurability(fsys, o.dir, wal.Options{}); err != nil {
		return fmt.Errorf("attach durability: %w", err)
	}
	if o.sv, err = sys.NewServing(mvmaint.ServeOptions{FeedDir: filepath.Join(o.dir, "feed")}); err != nil {
		return fmt.Errorf("serving: %w", err)
	}
	var h http.Handler = o.sv.Server
	if o.tr != nil {
		o.th.inner = server.New(server.Config{Hub: o.sv.Hub, Exec: o.tracedExec})
		h = o.th
	}
	o.hs, err = startHTTP(h)
	return err
}

// tracedExec is the traced server's exec hook: the same two calls
// System.Execute makes, timed separately.
func (o *oltpRun) tracedExec(stmt string) (server.ExecResult, error) {
	o.execMu.Lock()
	defer o.execMu.Unlock()
	seq, parent := o.th.txnSeq.Load(), o.th.txnSpan.Load()
	sp := o.tr.start("sqlparser.txn_from_sql", parent, seq)
	ty, upd, err := o.db.TxnFromSQL(stmt)
	sp.end()
	if err != nil {
		return server.ExecResult{}, err
	}
	sp = o.tr.start("ic.exec", parent, seq)
	out, err := o.sys.ExecuteTxn(ty, upd)
	d := sp.end()
	if err != nil {
		return server.ExecResult{}, err
	}
	if out.RolledBack {
		o.icNo.addDur(d, time.Microsecond)
	} else {
		o.icOK.addDur(d, time.Microsecond)
	}
	o.io[0] += out.Report.QueryIO.Total()
	o.io[1] += out.Report.ViewIO.Total()
	res := server.ExecResult{RolledBack: out.RolledBack, LSN: out.Report.LSN}
	for _, v := range out.Violations {
		res.Violations = append(res.Violations, v.String())
	}
	return res, nil
}

func runOLTP(cfg config, tr *tracer) (*report, error) {
	o := &oltpRun{cfg: cfg, tr: tr, rep: &report{},
		dir: filepath.Join(cfg.outDir, fmt.Sprintf("oltp-wal-%d", os.Getpid()))}
	defer os.RemoveAll(o.dir)
	runtime.GC()
	t0 := processCPU()
	if err := o.setup(); err != nil {
		return nil, err
	}
	setup := (processCPU() - t0).Seconds()
	if tr != nil {
		obs.Trace = obs.NewTracer(1 << 18)
	}
	return o.run(setup)
}

func (o *oltpRun) run(setup float64) (*report, error) {
	rep, tr := o.rep, o.tr
	var probe *hubProbe
	if tr != nil {
		var err error
		probe, err = installHubProbe(tr, o.sys.M, o.sv.Hub, "DeptPayroll", func() uint64 { return o.th.txnSeq.Load() })
		if err != nil {
			return nil, err
		}
	}
	sse, err := subscribeSSE(o.hs.base, "DeptPayroll", func(ev *feedEvent) {
		o.onEvent(ev)
		probe.delivered(ev)
	})
	if err != nil {
		return nil, err
	}
	reader := client()
	first, err := getView(reader, o.hs.base, "DeptPayroll", "limit=100000")
	if err != nil {
		return nil, err
	}
	o.fold = first.bag()
	if d := diffBags(o.fold, o.gen.payrollBag()); d != "" {
		return nil, fmt.Errorf("initial DeptPayroll differs from the generator: %s", d)
	}

	// Main phase: writes at oltpRate and page reads at oltpReadRate, both
	// open loops on their own connection.
	main := time.Duration(o.cfg.seconds * float64(time.Second))
	c0 := counters()
	io0 := o.db.Store.IO.Total()
	var syncs0, bytes0 int64
	if o.wfs != nil {
		syncs0, bytes0 = int64(o.wfs.syncs.n()), o.wfs.bytes.Load()
	}
	rw := startRuntimeWindow()
	writes := o.pregen(int(oltpRate * main.Seconds()))
	var late samples
	start := time.Now().Add(10 * time.Millisecond)
	ack, read, committed := newSeries(start, main), newSeries(start, main), newThroughput(start)
	o.mu.Lock()
	o.visible = newSeries(start, main)
	o.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(o.cfg.seed + 1))
		n := int(oltpReadRate * main.Seconds())
		openLoop(start.Add(halfPeriod(oltpReadRate)), oltpReadRate, n, &late, func(k int, due time.Time) {
			q := fmt.Sprintf("limit=%d&offset=%d", oltpPage, rng.Intn(oltpDepts-oltpPage+1))
			body, err := get(reader, o.hs.base, "DeptPayroll", q)
			done := time.Now()
			_, rows := pageInfo(body)
			o.mu.Lock()
			defer o.mu.Unlock()
			rep.attempted++
			if err != nil || rows != oltpPage {
				rep.fail("read %s: %d rows, %v", q, rows, err)
				return
			}
			read.addDur(due, done.Sub(due), time.Millisecond)
		})
	}()
	writer := client()
	rejected := o.writeLoop(writer, start, oltpRate, writes, ack, committed, &late, true)
	wg.Wait()

	// Every per-layer figure covers the main phase only: it is taken
	// before the fence and the ladder send more writes. The span-based
	// ones stop recording here, except for the hub and SSE spans still
	// on their way for main-phase writes.
	txnsMain := int64(len(writes))
	o.mu.Lock()
	tr.keepUpTo(o.seqNext)
	o.mu.Unlock()
	if tr != nil {
		obs.Trace.SetEnabled(false)
	}
	rw.finish(rep, txnsMain)
	c1 := counters()
	io1 := o.db.Store.IO.Total()
	rep.addE2E("live_heap_mb", "MB", liveHeapMB(), 0)
	rep.addLayer("ic.rejected", "count", float64(rejected), 0)
	o.execMu.Lock()
	rep.pct(true, "ic.exec_clean_p50_us", "us", &o.icOK, 0.5)
	rep.pct(true, "ic.exec_reject_p50_us", "us", &o.icNo, 0.5)
	rep.addLayer("storage.query_io_per_txn", "count", float64(o.io[0])/float64(txnsMain), 0)
	rep.addLayer("storage.view_io_per_txn", "count", float64(o.io[1])/float64(txnsMain), 0)
	o.execMu.Unlock()
	rep.addLayer("storage.page_io_per_txn", "count", float64(io1-io0)/float64(txnsMain), 0)
	if o.wfs != nil {
		rep.pct(true, "wal.sync_p50_us", "us", &o.wfs.syncs, 0.5)
		rep.pct(true, "wal.sync_p99_us", "us", &o.wfs.syncs, 0.99)
		rep.addLayer("wal.syncs_per_txn", "count", float64(int64(o.wfs.syncs.n())-syncs0)/float64(txnsMain), 0)
		rep.addLayer("wal.bytes_per_txn", "B", float64(o.wfs.bytes.Load()-bytes0)/float64(txnsMain), 0)
	}
	layerMaintain(rep, tr, "ic.exec", c0, c1, txnsMain)
	rep.pct(true, "sqlparser.txn_from_sql_p50_us", "us", tr.durations("sqlparser.txn_from_sql", time.Microsecond), 0.5)
	layerCore(rep, o.sys)
	layerSQL(rep, tr)

	// The fence's event follows every main-phase event, so the events
	// before it that no committed write explains are the main phase's.
	if err := o.fence(writer); err != nil {
		return nil, err
	}
	o.mu.Lock()
	dirty := o.feed.dirty
	o.mu.Unlock()
	rep.addLayer("server.dirty_events", "count", float64(dirty), 0)
	layerServer(rep, tr, probe)

	// SLO ladder: the highest fixed rate whose ack p99 stays within the
	// SLO without a growing backlog.
	slo := 0.0
	for _, rate := range oltpRungs {
		var rLate samples
		ws := o.pregen(int(rate * oltpRungTime.Seconds()))
		rs := time.Now().Add(10 * time.Millisecond)
		rAck, rDone := newSeries(rs, oltpRungTime), newThroughput(rs)
		o.writeLoop(writer, rs, rate, ws, rAck, rDone, &rLate, false)
		got := rDone.overall()
		p99 := quantile(rAck.all(), 0.99)
		tail := quantile(rLate.v[len(rLate.v)*3/4:], 0.5)
		ok := p99 <= oltpSLOms && tail <= oltpSLOms
		fmt.Printf("  ladder %5.0f txn/s: achieved %.1f, ack p99 %.3f ms (n=%d), late tail p50 %.3f ms: %v\n",
			rate, got, p99, rAck.n(), tail, ok)
		if !ok {
			break
		}
		slo = got
	}

	// A last fence drains the feed; then check it against the final
	// epoch and the generator.
	if err := o.fence(writer); err != nil {
		return nil, err
	}
	final, err := getView(reader, o.hs.base, "DeptPayroll", "limit=100000")
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	rep.check("sse_fold_equals_epoch", diffBags(o.fold, final.bag()) == "", "%s", orOK(diffBags(o.fold, final.bag())))
	rep.check("sse_events_match_writes", o.feed.matched == len(o.feed.want),
		"%d/%d committed salary writes seen on the feed with their row; %d other events",
		o.feed.matched, len(o.feed.want), o.feed.dirty)
	o.mu.Unlock()
	rep.check("epoch_equals_generator", diffBags(final.bag(), o.gen.payrollBag()) == "",
		"%s", orOK(diffBags(final.bag(), o.gen.payrollBag())))
	checkDrift(rep, o.sys)

	rep.addE2E("setup_s", "s", setup, 1)
	rep.addE2E("txns_per_s", "1/s", committed.overall(), 0)
	rep.pctRounds("ack_p50_ms", "ms", ack, 0.5)
	rep.pctPooled("loadgen.ack_p99_ms", "ms", ack, 0.99)
	rep.pctRounds("visible_p50_ms", "ms", o.visible, 0.5)
	rep.pctPooled("loadgen.visible_p99_ms", "ms", o.visible, 0.99)
	rep.pctRounds("read_p50_ms", "ms", read, 0.5)
	rep.pctPooled("loadgen.read_p99_ms", "ms", read, 0.99)
	rep.pct(true, "loadgen.late_p99_ms", "ms", &late, 0.99)
	rep.addLayer("loadgen.slo_tps", "1/s", slo, 0)

	// Restart: close everything, recover from the WAL directory and
	// compare the recovered state with the state before the restart.
	sse.stop()
	if sse.err != nil || sse.resets.Load() > 0 {
		rep.fail("SSE stream: err %v, %d resets", sse.err, sse.resets.Load())
	}
	o.hs.close()
	probe.stop(o.sys.M)
	before, err := oltpState(o.sys)
	if err != nil {
		return nil, err
	}
	if err := o.sv.Close(); err != nil {
		return nil, err
	}
	if err := o.mgr.Close(); err != nil {
		return nil, err
	}
	db2 := mvmaint.Open()
	if err := db2.Exec(oltpSchema); err != nil {
		return nil, err
	}
	t0 := time.Now()
	sys2, mgr2, err := mvmaint.Recover(db2, oltpNames, mvmaint.Config{Workload: oltpWorkload, Method: mvmaint.Exhaustive},
		wal.OSFS{}, o.dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	recoverS := time.Since(t0).Seconds()
	after, err := oltpState(sys2)
	if err != nil {
		return nil, err
	}
	rep.check("recovered_state_equals_before", after == before, "%d bytes of state compared", len(before))
	if err := mgr2.Close(); err != nil {
		return nil, err
	}
	rep.addLayer("wal.recover_s", "s", recoverS, 0)
	fmt.Printf("  recover_s %.4f s; dirty_events %d\n", recoverS, dirty)
	return rep, nil
}

// fence sends one clean salary write outside the measured phases and
// waits until its event arrives. The feed is in commit order, so every
// event of an earlier write has arrived by then. A feed that stalls
// instead fails sse_events_match_writes.
func (o *oltpRun) fence(c *http.Client) error {
	w := o.gen.clean()
	o.mu.Lock()
	o.seqNext++
	seq := o.seqNext
	o.feed.expect(feedChange{old: w.old, new: w.payroll})
	want := len(o.feed.want)
	o.mu.Unlock()
	rolledBack, err := postTxn(c, o.hs.base, seq, w.stmt)
	o.mu.Lock()
	o.rep.attempted++
	o.mu.Unlock()
	if err != nil || rolledBack {
		return fmt.Errorf("fence write %q: rolled back %v, %v", w.stmt, rolledBack, err)
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		o.mu.Lock()
		arrived := o.feed.matched >= want
		o.mu.Unlock()
		if arrived {
			break
		}
	}
	return nil
}

// pregen draws n writes up front, so generation never sits inside a
// measured interval.
func (o *oltpRun) pregen(n int) []oltpWrite {
	ws := make([]oltpWrite, n)
	for i := range ws {
		ws[i] = o.gen.next()
	}
	return ws
}

// writeLoop sends writes as an open loop at rate and checks each verdict.
// Each committed write adds 1 to committed when its ack arrives; it returns
// the number of rejected writes.
func (o *oltpRun) writeLoop(c *http.Client, start time.Time, rate float64, ws []oltpWrite, ack *series, committed *throughput, late *samples, timed bool) (rejected int) {
	openLoop(start, rate, len(ws), late, func(k int, due time.Time) {
		w := ws[k]
		o.mu.Lock()
		o.seqNext++
		seq := o.seqNext
		if !w.reject && w.payroll != "" {
			o.feed.expect(feedChange{old: w.old, new: w.payroll, due: due, main: timed})
		}
		o.mu.Unlock()
		rolledBack, err := postTxn(c, o.hs.base, seq, w.stmt)
		o.mu.Lock()
		defer o.mu.Unlock()
		o.rep.attempted++
		if err != nil {
			o.rep.fail("write %q: %v", w.stmt, err)
			return
		}
		if rolledBack != w.reject {
			o.rep.fail("write %q: rolled back %v, generator expects %v", w.stmt, rolledBack, w.reject)
			return
		}
		now := time.Now()
		ack.addDur(due, now.Sub(due), time.Millisecond)
		if w.reject {
			rejected++
		} else {
			committed.add(now, 1)
		}
	})
	return rejected
}

// postTxn sends one statement and reports whether it was rolled back.
func postTxn(c *http.Client, base string, seq uint64, stmt string) (bool, error) {
	body, _ := json.Marshal(map[string][]string{"statements": {stmt}})
	req, err := http.NewRequest(http.MethodPost, base+"/txn", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Bench-Seq", strconv.FormatUint(seq, 10))
	resp, err := c.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var out struct {
		Applied    int `json:"applied"`
		RolledBack int `json:"rolled_back"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return false, err
	}
	if out.Applied != 1 {
		return false, fmt.Errorf("applied %d statements, want 1", out.Applied)
	}
	return out.RolledBack == 1, nil
}

// onEvent folds one DeptPayroll event and matches it to the write that
// caused it.
func (o *oltpRun) onEvent(ev *feedEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ev.fold(o.fold)
	if w, ok := o.feed.observe(ev); ok && w.main {
		o.visible.addDur(w.due, ev.at.Sub(w.due), time.Millisecond)
	}
}

// oltpState renders the base relations and DeptPayroll canonically.
func oltpState(sys *mvmaint.System) (string, error) {
	var lines []string
	for _, rel := range []string{"Dept", "Emp"} {
		for _, r := range sys.DB.Store.MustGet(rel).Snapshot() {
			lines = append(lines, fmt.Sprintf("%s %v x%d", rel, r.Tuple, r.Count))
		}
	}
	rows, err := sys.ViewRows("DeptPayroll")
	if err != nil {
		return "", err
	}
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("DeptPayroll %v x%d", r.Tuple, r.Count))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), nil
}
