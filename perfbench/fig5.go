package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	mvmaint "repro"
	"repro/internal/delta"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// fig5_ingest: the Figure 5 R/S/T schema at 5000 items, a closed loop of
// 64-txn windows into System.M.ApplyBatch. Every txn either changes one
// item's T price or replaces one of its sales (delete the oldest S row,
// insert a new one), so |R|, |S| and |T| stay constant and the per-txn
// cost does not drift with the length of the run.
const (
	fig5Items    = 5000
	fig5RPerItem = 4
	fig5SPerItem = 5
	fig5Batch    = 64
	fig5Setups   = 5
	fig5ZipfS    = 1.1
	// fig5Warmup windows run before the timed phase; live_heap_mb is
	// taken after them, at the same number of applied txns on every run
	// whatever the speed, because the heap grows with the windows
	// applied.
	fig5Warmup = 320
	// The traced run prices its own tracing in fig5OverheadPairs pairs
	// of fig5OverheadBlock windows, one untraced and one traced.
	fig5OverheadPairs = 5
	fig5OverheadBlock = 40
	// fig5IOTolerance bounds how far page I/O per txn may move between
	// the first and last quarter of the timed phase. A stationary stream
	// still varies with which Zipf draws share a window and coalesce,
	// the more so the fewer windows a slow host applies: over 45 runs of
	// 20 s the quarters differed by 0.74% (standard deviation), at most
	// 2.22%. The Figure 5 stream this workload replaces drifted tenfold.
	fig5IOTolerance = 0.05
)

const fig5DDL = `
CREATE TABLE R (RName VARCHAR(20) PRIMARY KEY, Item VARCHAR(20));
CREATE TABLE S (SName VARCHAR(20) PRIMARY KEY, Item VARCHAR(20), Quantity INT);
CREATE TABLE T (Item VARCHAR(20) PRIMARY KEY, Price INT);
CREATE INDEX r_item ON R (Item);
CREATE INDEX s_item ON S (Item);
CREATE INDEX t_item ON T (Item);
CREATE VIEW Revenue (Item, Revenue) AS
SELECT T.Item, SUM(S.Quantity * T.Price)
FROM R, S, T
WHERE R.Item = S.Item AND S.Item = T.Item
GROUP BY T.Item;
`

var (
	fig5Price = &txn.Type{Name: ">T.Price", Weight: 0.8, Updates: []txn.RelUpdate{
		{Rel: "T", Kind: txn.Modify, Size: 1, Cols: []string{"Price"}}}}
	fig5Sale = &txn.Type{Name: "S-+", Weight: 0.2, Updates: []txn.RelUpdate{
		{Rel: "S", Kind: txn.Delete, Size: 1}, {Rel: "S", Kind: txn.Insert, Size: 1}}}
)

// sale is one S row as the generator tracks it.
type sale struct {
	name string
	qty  int64
}

// fig5Gen generates the data script and the txn stream from a seed and
// tracks the state they imply, so every read can be checked.
type fig5Gen struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	price  []int64
	sales  [][]sale // per item, oldest first
	sumQty []int64
	nextS  int
}

func itemName(i int) string { return fmt.Sprintf("i%05d", i) }

func newFig5Gen(seed int64) *fig5Gen {
	g := &fig5Gen{rng: rand.New(rand.NewSource(seed))}
	g.zipf = rand.NewZipf(g.rng, fig5ZipfS, 1, fig5Items-1)
	g.price = make([]int64, fig5Items)
	g.sales = make([][]sale, fig5Items)
	g.sumQty = make([]int64, fig5Items)
	for i := range g.price {
		g.price[i] = 10 + g.rng.Int63n(90)
		for j := 0; j < fig5SPerItem; j++ {
			g.addSale(i)
		}
	}
	return g
}

func (g *fig5Gen) addSale(i int) sale {
	s := sale{name: fmt.Sprintf("s%07d", g.nextS), qty: 1 + g.rng.Int63n(9)}
	g.nextS++
	g.sales[i] = append(g.sales[i], s)
	g.sumQty[i] += s.qty
	return s
}

// script renders the data as one multi-row INSERT per table.
func (g *fig5Gen) script() string {
	var r, s, t strings.Builder
	r.WriteString("INSERT INTO R VALUES ")
	s.WriteString("INSERT INTO S VALUES ")
	t.WriteString("INSERT INTO T VALUES ")
	for i := 0; i < fig5Items; i++ {
		sep := ", "
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(&t, "%s('%s', %d)", sep, itemName(i), g.price[i])
		for j := 0; j < fig5RPerItem; j++ {
			if i > 0 || j > 0 {
				r.WriteString(", ")
			}
			fmt.Fprintf(&r, "('r%05d_%d', '%s')", i, j, itemName(i))
		}
		for j, sl := range g.sales[i] {
			if i > 0 || j > 0 {
				s.WriteString(", ")
			}
			fmt.Fprintf(&s, "('%s', '%s', %d)", sl.name, itemName(i), sl.qty)
		}
	}
	return r.String() + ";\n" + s.String() + ";\n" + t.String() + ";\n"
}

// revenue is the Revenue view's value for item i in the tracked state.
func (g *fig5Gen) revenue(i int) int64 { return fig5RPerItem * g.sumQty[i] * g.price[i] }

// next draws one txn and advances the tracked state; it returns the
// item it touched.
func (g *fig5Gen) next(db *mvmaint.DB) (txn.Transaction, int) {
	i := int(g.zipf.Uint64())
	item := value.NewString(itemName(i))
	if g.rng.Float64() < 0.8 {
		old := g.price[i]
		p := 10 + g.rng.Int63n(90)
		if p == old {
			p = 100
		}
		g.price[i] = p
		d := delta.New(db.Catalog.MustGet("T").Schema)
		d.Modify(value.Tuple{item, value.NewInt(old)}, value.Tuple{item, value.NewInt(p)}, 1)
		return txn.Transaction{Type: fig5Price, Updates: map[string]*delta.Delta{"T": d}}, i
	}
	oldest := g.sales[i][0]
	g.sales[i] = g.sales[i][1:]
	g.sumQty[i] -= oldest.qty
	fresh := g.addSale(i)
	d := delta.New(db.Catalog.MustGet("S").Schema)
	d.Delete(value.Tuple{value.NewString(oldest.name), item, value.NewInt(oldest.qty)}, 1)
	d.Insert(value.Tuple{value.NewString(fresh.name), item, value.NewInt(fresh.qty)}, 1)
	return txn.Transaction{Type: fig5Sale, Updates: map[string]*delta.Delta{"S": d}}, i
}

// fig5System is one set-up Figure 5 system.
type fig5System struct {
	db  *mvmaint.DB
	sys *mvmaint.System
	gen *fig5Gen
}

// setupFig5 runs the data script and Build, timing each.
func setupFig5(seed int64, tr *tracer) (*fig5System, error) {
	gen := newFig5Gen(seed)
	script := gen.script()
	db := mvmaint.Open()
	if err := db.Exec(fig5DDL); err != nil {
		return nil, fmt.Errorf("ddl: %w", err)
	}
	sp := tr.start("sqlparser.load", 0, 0)
	if err := db.Exec(script); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	sp.end()
	sp = tr.start("core.build", 0, 0)
	sys, err := db.Build([]string{"Revenue"}, mvmaint.Config{
		Workload: []*txn.Type{fig5Price, fig5Sale}, Method: mvmaint.Exhaustive})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	sp.end()
	return &fig5System{db: db, sys: sys, gen: gen}, nil
}

// fig5Window is one applied window as the stationarity check sees it.
type fig5Window struct {
	end time.Duration // since the timed phase began
	cpu time.Duration // the writer's CPU time in the window
	io  int64
}

func runFig5(cfg config, tr *tracer) (*report, error) {
	// The writer's timings are the CPU time of its thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rep := &report{}
	var setups []float64
	var fs *fig5System
	for i := 0; i < fig5Setups; i++ {
		fs = nil
		runtime.GC()
		t0 := processCPU()
		var err error
		if fs, err = setupFig5(cfg.seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, (processCPU() - t0).Seconds())
	}
	db, sys, gen := fs.db, fs.sys, fs.gen
	root := sys.DAG.Roots[0]
	view, ok := sys.M.ViewRel(root)
	if !ok {
		return nil, fmt.Errorf("Revenue is not materialized")
	}
	itemCol := []string{view.Def.Schema.Cols[0].Name}

	limit := time.Duration(cfg.seconds * float64(time.Second))
	var ack, visible, read samples // writer CPU time per window, ms
	var busy time.Duration         // writer CPU time of every timed window
	var windows []fig5Window
	var queryIO, viewIO int64
	window := make([]txn.Transaction, fig5Batch)
	touched := make([]int, fig5Batch)

	// step applies one window, then reads back and checks the Revenue of
	// every item the window touched. A timed step records its figures in
	// the writer thread's CPU time; tr, when not nil, records spans
	// around the calls.
	var rows []storage.Row
	step := func(tr *tracer, timed bool, phase0 time.Time, seq uint64) error {
		for k := range window {
			window[k], touched[k] = gen.next(db)
		}
		io0 := db.Store.IO.Total()
		cpu0 := threadCPU()
		sp := tr.start("maintain.apply_batch", 0, seq)
		br, err := sys.M.ApplyBatch(window)
		if err != nil {
			return err
		}
		sp.end()
		cpu1 := threadCPU()
		io := db.Store.IO.Total() - io0
		sp = tr.start("storage.read", 0, seq)
		for _, item := range touched {
			rows = view.LookupAppend(itemCol, value.Tuple{value.NewString(itemName(item))}, rows[:0])
			if want := gen.revenue(item); len(rows) != 1 || rows[0].Tuple[1].AsInt() != want {
				rep.fail("read Revenue(%s) = %v, want %d", itemName(item), rows, want)
			}
		}
		sp.end()
		cpu2 := threadCPU()
		rep.attempted += 2 * fig5Batch
		if !timed {
			return nil
		}
		ack.addDur(cpu1-cpu0, time.Millisecond)
		visible.addDur(cpu2-cpu0, time.Millisecond)
		read.addDur(cpu2-cpu1, time.Millisecond)
		busy += cpu2 - cpu0
		windows = append(windows, fig5Window{end: time.Since(phase0), cpu: cpu2 - cpu0, io: io})
		queryIO += br.QueryIO.Total()
		viewIO += br.ViewIO.Total()
		return nil
	}

	var seq uint64
	for seq < fig5Warmup {
		seq++
		if err := step(nil, false, time.Now(), seq); err != nil {
			return nil, err
		}
	}
	rep.addE2E("live_heap_mb", "MB", liveHeapMB(), 0)
	// The program's own span ring keeps only its last 4096 spans; give
	// the traced run one that holds the whole timed phase so maintain.*
	// self-time covers every timed window and nothing else.
	untracedObs := obs.Trace
	if tr != nil {
		obs.Trace = obs.NewTracer(1 << 18)
	}
	c0 := counters()
	rw := startRuntimeWindow()
	phase0 := time.Now()
	for time.Since(phase0) < limit {
		seq++
		if err := step(tr, true, phase0, seq); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(phase0)
	txns, io := int64(len(windows)*fig5Batch), int64(0)
	for _, w := range windows {
		io += w.io
	}
	rw.finish(rep, txns)
	c1 := counters()

	rep.addE2E("setup_s", "s", median(setups), len(setups))
	rep.addE2E("txns_per_s", "1/s", float64(txns)/busy.Seconds(), 0)
	rep.pct(false, "ack_p50_ms", "ms", &ack, 0.5)
	rep.pct(true, "loadgen.ack_p99_ms", "ms", &ack, 0.99)
	rep.pct(false, "visible_p50_ms", "ms", &visible, 0.5)
	rep.pct(true, "loadgen.visible_p99_ms", "ms", &visible, 0.99)
	rep.pct(false, "read_p50_ms", "ms", &read, 0.5)
	rep.pct(true, "loadgen.read_p99_ms", "ms", &read, 0.99)

	// Stationarity: the first and last quarter must cost the same page
	// I/O per txn.
	q1, q4 := quarter(windows, 0, elapsed), quarter(windows, 3, elapsed)
	fmt.Printf("  stationarity q1: %.1f txns/s %.4f pageIO/txn; q4: %.1f txns/s %.4f pageIO/txn\n",
		q1.tps, q1.ioPerTxn, q4.tps, q4.ioPerTxn)
	rep.check("stationary_page_io", q1.txns > 0 && q4.txns > 0 &&
		math.Abs(q4.ioPerTxn-q1.ioPerTxn) <= fig5IOTolerance*q1.ioPerTxn,
		"q1 %.4f q4 %.4f pageIO/txn (tolerance %.0f%%)", q1.ioPerTxn, q4.ioPerTxn, fig5IOTolerance*100)

	layerCore(rep, sys)
	rep.addLayer("storage.page_io_per_txn", "count", float64(io)/float64(txns), 0)
	rep.addLayer("storage.query_io_per_txn", "count", float64(queryIO)/float64(txns), 0)
	rep.addLayer("storage.view_io_per_txn", "count", float64(viewIO)/float64(txns), 0)
	layerMaintain(rep, tr, "maintain.apply_batch", c0, c1, txns)
	layerSQL(rep, tr)

	if tr != nil {
		// Tracing overhead: writer CPU time per window with the
		// benchmark's spans and the large program span ring, minus that
		// with neither (as in an untraced run), in interleaved blocks.
		// The spans of these blocks go to a tracer of their own.
		traced, blockTr := obs.Trace, newTracer()
		block := func(btr *tracer, ring *obs.Tracer) (float64, error) {
			obs.Trace = ring
			t0 := threadCPU()
			for w := 0; w < fig5OverheadBlock; w++ {
				seq++
				if err := step(btr, false, time.Now(), seq); err != nil {
					return 0, err
				}
			}
			return (threadCPU() - t0).Seconds() / fig5OverheadBlock, nil
		}
		var off, on []float64
		for p := 0; p < fig5OverheadPairs; p++ {
			a, err := block(nil, untracedObs)
			if err != nil {
				return nil, err
			}
			b, err := block(blockTr, traced)
			if err != nil {
				return nil, err
			}
			off, on = append(off, a), append(on, b)
		}
		obs.Trace = traced
		rep.addLayer("loadgen.trace_overhead_pct", "%", (median(on)/median(off)-1)*100, len(on)+len(off))
	}

	checkDrift(rep, sys)
	runtime.KeepAlive(sys)
	return rep, nil
}

// quarterStats is one quarter of the timed phase.
type quarterStats struct {
	txns          int64
	tps, ioPerTxn float64
}

// quarter sums the windows that ended in quarter k (0..3) of elapsed.
func quarter(ws []fig5Window, k int, elapsed time.Duration) quarterStats {
	lo, hi := elapsed*time.Duration(k)/4, elapsed*time.Duration(k+1)/4
	var txns, io int64
	var cpu time.Duration
	for _, w := range ws {
		if w.end > lo && w.end <= hi {
			txns += fig5Batch
			io += w.io
			cpu += w.cpu
		}
	}
	if txns == 0 {
		return quarterStats{}
	}
	return quarterStats{txns: txns, tps: float64(txns) / cpu.Seconds(), ioPerTxn: float64(io) / float64(txns)}
}

// layerCore reports what Build chose and what the cost model predicts.
func layerCore(rep *report, sys *mvmaint.System) {
	rep.addLayer("core.view_sets_costed", "count", float64(sys.Decision.Explored), 0)
	rep.addLayer("core.est_io_per_txn", "count", sys.Decision.Best.Weighted, 0)
}

// layerSQL reports the set-up layers from the last set-up's spans.
func layerSQL(rep *report, tr *tracer) {
	load, build := tr.durations("sqlparser.load", time.Second), tr.durations("core.build", time.Second)
	rep.addLayer("sqlparser.load_s", "s", load.q(0.5), load.n())
	rep.addLayer("core.build_s", "s", build.q(0.5), build.n())
}

// layerMaintain reports the maintenance pipeline: window latency from
// the benchmark's spans, stage self-time from the program's own
// maintain.* spans, and hit ratios from its counters.
func layerMaintain(rep *report, tr *tracer, window string, c0, c1 map[string]int64, txns int64) {
	rep.pct(true, "maintain.window_p50_ms", "ms", tr.durations(window, time.Millisecond), 0.5)
	self := map[string]int64{}
	if tr != nil {
		for _, st := range obs.Trace.Summary() {
			self[st.Name] = st.Self
		}
	}
	perK := func(ns int64) float64 { return float64(ns) / 1e6 / math.Max(1, float64(txns)) * 1000 }
	rep.addLayer("maintain.propagate_ms_per_ktxn", "ms", perK(self["maintain.propagate"]), 0)
	rep.addLayer("maintain.apply_views_ms_per_ktxn", "ms",
		perK(self["maintain.apply_views"]+self["maintain.apply.worker"]), 0)
	rep.addLayer("maintain.apply_base_ms_per_ktxn", "ms", perK(self["maintain.apply_base"]), 0)
	d := func(name string) float64 { return float64(c1[name] - c0[name]) }
	rep.addLayer("maintain.mqo_hit_ratio", "ratio",
		ratio(d("maintain.mqo.memo_hits"), d("maintain.mqo.memo_hits")+d("maintain.mqo.memo_misses")), 0)
	rep.addLayer("maintain.probe_hit_ratio", "ratio",
		ratio(d("maintain.probe.hits"), d("maintain.probe.hits")+d("maintain.probe.misses")), 0)
	rep.addLayer("delta.coalesce_survival", "ratio",
		ratio(d("delta.coalesce.changes_out"), d("delta.coalesce.changes_in")), 0)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkDrift recomputes every maintained root from scratch and compares.
func checkDrift(rep *report, sys *mvmaint.System) {
	for _, e := range sys.DAG.Roots {
		drift, err := sys.M.Drift(e)
		if err != nil {
			drift = err.Error()
		}
		rep.check("drift_"+e.String(), drift == "", "%s", orOK(drift))
	}
}

func orOK(s string) string {
	if s == "" {
		return "matches recomputation"
	}
	return s
}
