package mvmaint_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	mvmaint "repro"
	"repro/internal/server"
	"repro/internal/wal"
)

// TestDurableFeedShowsOnlyAcceptedWrites drives a durable, served
// system with DeptConstraint through POST /txn with a mix of clean and
// violating salary updates. No rejected transaction may reach the log,
// an epoch or the feed: every feed event is explained, in order, by an
// accepted write; the hub publishes exactly one window per accepted
// write; the final epoch equals the generator's model; and a rejection
// leaves LastLSN where it was.
func TestDurableFeedShowsOnlyAcceptedWrites(t *testing.T) {
	const depts, emps = 6, 4
	db := mvmaint.Open()
	db.MustExec(durableSchemaDDL + `
CREATE VIEW DeptPayroll (DName, Total) AS
SELECT Emp.DName, SUM(Salary) FROM Emp GROUP BY Emp.DName;
`)
	db.MustExec(durableData(depts, emps))
	sys, err := db.Build([]string{"DeptPayroll", "DeptConstraint"}, mvmaint.Config{
		Workload: paperWorkload(),
		Method:   mvmaint.Exhaustive,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr, err := sys.AttachDurability(wal.OSFS{}, filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	sv, err := sys.NewServing(mvmaint.ServeOptions{FeedDir: filepath.Join(dir, "feed")})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	sub, err := sv.Hub.Subscribe("DeptPayroll", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ln := server.NewMemListener()
	hs := &http.Server{Handler: sv.Server}
	go hs.Serve(ln)
	defer func() {
		hs.Close()
		ln.Close()
	}()
	client := ln.Client()

	// The generator's model of the database, and the payroll change each
	// accepted write must publish.
	type change struct {
		dept          string
		before, after int64
	}
	salary := map[string]int64{}
	payroll := map[string]int64{}
	const budget = emps*100 + 500
	for i := 0; i < depts; i++ {
		payroll[fmt.Sprintf("d%03d", i)] = emps * 100
		for j := 0; j < emps; j++ {
			salary[fmt.Sprintf("e%03d_%02d", i, j)] = 100
		}
	}
	var want []change
	rng := rand.New(rand.NewSource(5))
	rejected := 0
	for step := 0; step < 80; step++ {
		i, j := rng.Intn(depts), rng.Intn(emps)
		dept, name := fmt.Sprintf("d%03d", i), fmt.Sprintf("e%03d_%02d", i, j)
		next := int64(50 + rng.Intn(400))
		if next == salary[name] {
			next++
		}
		after := payroll[dept] - salary[name] + next
		violates := after > budget

		lsnBefore := mgr.LastLSN()
		stmt := fmt.Sprintf("UPDATE Emp SET Salary = %d WHERE EName = '%s'", next, name)
		body, _ := json.Marshal(map[string][]string{"statements": {stmt}})
		resp, err := client.Post("http://mv/txn", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			Applied    int    `json:"applied"`
			RolledBack int    `json:"rolled_back"`
			LSN        uint64 `json:"lsn"`
			Error      string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || reply.Applied != 1 {
			t.Fatalf("step %d: POST /txn = %d %+v (%v)", step, resp.StatusCode, reply, err)
		}
		if (reply.RolledBack == 1) != violates {
			t.Fatalf("step %d: %s rolled_back=%d, model says violates=%v", step, stmt, reply.RolledBack, violates)
		}
		if violates {
			rejected++
			if mgr.LastLSN() != lsnBefore || reply.LSN != lsnBefore {
				t.Fatalf("step %d: rejection moved LastLSN %d -> %d (reply lsn %d)",
					step, lsnBefore, mgr.LastLSN(), reply.LSN)
			}
			continue
		}
		if mgr.LastLSN() != lsnBefore+1 || reply.LSN != lsnBefore+1 {
			t.Fatalf("step %d: accepted write at LSN %d (reply %d), want %d",
				step, mgr.LastLSN(), reply.LSN, lsnBefore+1)
		}
		want = append(want, change{dept: dept, before: payroll[dept], after: after})
		salary[name], payroll[dept] = next, after
	}
	if rejected == 0 || rejected == 80 {
		t.Fatalf("vacuous stream: %d of 80 rejected", rejected)
	}

	// Every feed event, in order, is the next accepted write's change.
	for k, w := range want {
		var ev server.Event
		select {
		case ev = <-sub.Events():
		case <-time.After(10 * time.Second):
			t.Fatalf("event %d of %d never arrived", k+1, len(want))
		}
		var got struct {
			Changes []struct {
				Op  string `json:"op"`
				Old []any  `json:"old"`
				New []any  `json:"new"`
			} `json:"changes"`
		}
		if err := json.Unmarshal(ev.Data, &got); err != nil {
			t.Fatal(err)
		}
		wantOld := []any{w.dept, float64(w.before)}
		wantNew := []any{w.dept, float64(w.after)}
		if len(got.Changes) != 1 || got.Changes[0].Op != "modify" ||
			fmt.Sprint(got.Changes[0].Old) != fmt.Sprint(wantOld) ||
			fmt.Sprint(got.Changes[0].New) != fmt.Sprint(wantNew) {
			t.Fatalf("event %d = %s, want %s %v -> %v", k+1, ev.Data, w.dept, w.before, w.after)
		}
	}
	if st := sv.Hub.Stats(); st.FeedSeq != uint64(len(want)) {
		t.Fatalf("hub published %d windows for %d accepted writes", st.FeedSeq, len(want))
	}

	// The final epoch is the model's payroll.
	ep, ok := sv.Hub.Current("DeptPayroll")
	if !ok {
		t.Fatal("DeptPayroll not served")
	}
	rows := ep.Page(0, -1)
	if len(rows) != depts {
		t.Fatalf("final epoch has %d rows, want %d", len(rows), depts)
	}
	for _, r := range rows {
		if d := r.Tuple[0].S; r.Tuple[1].AsInt() != payroll[d] || r.Count != 1 {
			t.Errorf("final epoch row %v ×%d, model payroll %d", r.Tuple, r.Count, payroll[d])
		}
	}
}

// TestDurableWindowOfOneRecover: without an assertion a transaction is
// committed by the pipelined committer from its own deltas, modify
// pairs included. Each acknowledged write is durable at the next LSN,
// and recovery replays the log to the same view contents.
func TestDurableWindowOfOneRecover(t *testing.T) {
	ddl := durableSchemaDDL + `
CREATE VIEW DeptPayroll (DName, Total) AS
SELECT Emp.DName, SUM(Salary) FROM Emp GROUP BY Emp.DName;
`
	cfg := mvmaint.Config{Workload: paperWorkload(), Method: mvmaint.Exhaustive}
	db := mvmaint.Open()
	db.MustExec(ddl)
	db.MustExec(durableData(5, 3))
	sys, err := db.Build([]string{"DeptPayroll"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr, err := sys.AttachDurability(wal.OSFS{}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k, stmt := range []string{
		`UPDATE Emp SET Salary = 250 WHERE EName = 'e002_01'`,
		`INSERT INTO Emp VALUES ('fresh', 'd004', 90)`,
		`UPDATE Emp SET Salary = 40 WHERE EName = 'e002_01'`,
		`DELETE FROM Emp WHERE EName = 'e000_00'`,
	} {
		out, err := sys.Execute(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if out.Report.LSN != uint64(k+1) || mgr.LastLSN() != uint64(k+1) {
			t.Fatalf("%s: lsn %d, last %d, want %d", stmt, out.Report.LSN, mgr.LastLSN(), k+1)
		}
	}
	before, err := sys.ViewRows("DeptPayroll")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, r := range before {
		want[r.Tuple[0].S] = r.Tuple[1].AsInt()
	}
	if want["d002"] != 240 || want["d004"] != 390 || want["d000"] != 200 {
		t.Fatalf("payroll before recovery = %v", want)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mvmaint.Open()
	db2.MustExec(ddl)
	sys2, mgr2, err := mvmaint.Recover(db2, []string{"DeptPayroll"}, cfg, wal.OSFS{}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if mgr2.RecoveredLSN != 4 || mgr2.ReplayedWindows != 4 {
		t.Fatalf("recovered LSN %d after %d windows, want 4 and 4", mgr2.RecoveredLSN, mgr2.ReplayedWindows)
	}
	after, err := sys2.ViewRows("DeptPayroll")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("%d payroll rows after recovery, want %d", len(after), len(before))
	}
	for _, r := range after {
		if d := r.Tuple[0].S; r.Tuple[1].AsInt() != want[d] {
			t.Errorf("recovered payroll %s = %d, want %d", d, r.Tuple[1].AsInt(), want[d])
		}
	}
}
