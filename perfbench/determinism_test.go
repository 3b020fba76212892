package main

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/txn"
)

// TestSeedSelectsStream: one seed always yields the same inputs, and
// another seed different ones, for every workload's generator.
func TestSeedSelectsStream(t *testing.T) {
	oltp := func(seed int64) string {
		g := newOLTPGen(seed)
		s := g.script()
		for i := 0; i < 500; i++ {
			s += g.next().stmt + "\n"
		}
		return s
	}
	fig5 := func(seed int64) string {
		fs, err := setupFig5(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := fs.gen.script()
		for i := 0; i < 500; i++ {
			tx, _ := fs.gen.next(fs.db)
			for rel, d := range tx.Updates {
				s += fmt.Sprint(rel, d.Changes) + "\n"
			}
		}
		return s
	}
	big := func(seed int64) string {
		b, err := setupBig(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer b.close()
		s := b.gen.script()
		for i := 0; i < 500; i++ {
			s += b.gen.next(b.db).row + "\n"
		}
		return s
	}
	for name, gen := range map[string]func(int64) string{"sql_oltp": oltp, "fig5_ingest": fig5, "serve_bigview": big} {
		if gen(7) != gen(7) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if gen(7) == gen(8) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

// TestFig5SameSeedSameIO applies the same windows to two systems set up
// from one seed and expects identical page I/O.
func TestFig5SameSeedSameIO(t *testing.T) {
	io := func() int64 {
		fs, err := setupFig5(11, nil)
		if err != nil {
			t.Fatal(err)
		}
		window := make([]txn.Transaction, fig5Batch)
		io0 := fs.db.Store.IO.Total()
		for w := 0; w < 40; w++ {
			for k := range window {
				window[k], _ = fs.gen.next(fs.db)
			}
			if _, err := fs.sys.M.ApplyBatch(window); err != nil {
				t.Fatal(err)
			}
		}
		return fs.db.Store.IO.Total() - io0
	}
	if a, b := io(), io(); a != b {
		t.Errorf("same seed, page I/O %d then %d", a, b)
	}
}

// TestOLTPSameSeedSameCounts runs two short traced sql_oltp runs on one
// seed: the counts the workload fixes must repeat exactly, and every
// correctness check must pass.
func TestOLTPSameSeedSameCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("two sql_oltp set-ups take about a minute")
	}
	run := func() map[string]float64 {
		rep, err := runOLTP(config{seed: 5, seconds: 2, traced: true, outDir: t.TempDir()}, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.checks {
			if !c.ok {
				t.Errorf("check %s failed: %s", c.name, c.detail)
			}
		}
		if rep.failed != 0 {
			t.Errorf("%d failed ops: %v", rep.failed, rep.failNotes)
		}
		got := map[string]float64{}
		for _, m := range rep.layer {
			got[m.Name] = m.Value
		}
		return got
	}
	a, b := run(), run()
	for _, name := range []string{"storage.page_io_per_txn", "ic.rejected", "server.dirty_events", "wal.bytes_per_txn"} {
		if a[name] != b[name] {
			t.Errorf("%s: %v then %v on the same seed", name, a[name], b[name])
		}
	}
	if a["ic.rejected"] == 0 {
		t.Error("the stream produced no rejected writes")
	}
}

// TestFeedMatcherCountsStrayEvents: the DeptPayroll feed check pairs
// each committed write with its event whether or not rejected writes
// leak events onto the feed, and counts the leaked events as dirty.
func TestFeedMatcherCountsStrayEvents(t *testing.T) {
	event := func(old, new string) *feedEvent {
		ev := &feedEvent{}
		data := fmt.Sprintf(`{"seq":1,"changes":[{"old":%s,"new":%s,"count":1}]}`, old, new)
		if err := json.Unmarshal([]byte(data), ev); err != nil {
			t.Fatal(err)
		}
		return ev
	}
	a0, a1, a2 := payrollTuple(1, 900), payrollTuple(1, 950), payrollTuple(1, 1200)
	b0, b1 := payrollTuple(2, 800), payrollTuple(2, 820)
	// A clean write to d0001, a rejected one to d0001 (apply, then
	// compensation when it leaks), and a clean write to d0002.
	leaked := []*feedEvent{event(a0, a1), event(a1, a2), event(a2, a1), event(b0, b1)}
	clean := []*feedEvent{leaked[0], leaked[3]}
	for _, tc := range []struct {
		name   string
		events []*feedEvent
		dirty  int
	}{{"leaking feed", leaked, 2}, {"clean feed", clean, 0}} {
		var f feedMatcher
		f.expect(feedChange{old: a0, new: a1})
		f.expect(feedChange{old: b0, new: b1})
		for _, ev := range tc.events {
			f.observe(ev)
		}
		if f.matched != 2 || f.dirty != tc.dirty {
			t.Errorf("%s: %d of 2 writes matched, %d dirty events; want 2 and %d",
				tc.name, f.matched, f.dirty, tc.dirty)
		}
	}
}
