package ic_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/ic"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/tracks"
	"repro/internal/txn"
)

func checkerFixture(t *testing.T) (*corpus.Database, *ic.Checker) {
	t.Helper()
	db := corpus.NewDatabase(corpus.Config{Departments: 8, EmpsPerDept: 4})
	d, err := dag.FromTree(db.ProblemDept())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 200); err != nil {
		t.Fatal(err)
	}
	vs := tracks.RootSet(d)
	if n3 := d.FindEq(db.SumOfSals()); n3 != nil {
		vs[n3.ID] = true
	}
	m, err := maintain.New(d, db.Store, cost.PageIO{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	checker, err := ic.New(m, ic.Assertion{Name: "DeptConstraint", View: d.Root})
	if err != nil {
		t.Fatal(err)
	}
	return db, checker
}

func TestCleanTransactionPasses(t *testing.T) {
	db, c := checkerFixture(t)
	d, err := db.EmpSalaryDelta(0, 0, 120)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Execute(txn.PaperTypes()[0], map[string]*delta.Delta{"Emp": d})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() || out.RolledBack {
		t.Errorf("clean transaction flagged: %+v", out.Violations)
	}
}

func TestViolationRejectedAndRolledBack(t *testing.T) {
	db, c := checkerFixture(t)
	d, err := db.EmpSalaryDelta(3, 1, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Execute(txn.PaperTypes()[0], map[string]*delta.Delta{"Emp": d})
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() || !out.RolledBack {
		t.Fatalf("violation not rejected: %+v", out)
	}
	if out.Violations[0].Assertion != "DeptConstraint" {
		t.Errorf("violation name = %q", out.Violations[0].Assertion)
	}
	// State must be as before: re-running a clean transaction passes and
	// the assertion view is empty.
	d, err = db.EmpSalaryDelta(3, 1, 110)
	if err != nil {
		t.Fatal(err)
	}
	out, err = c.Execute(txn.PaperTypes()[0], map[string]*delta.Delta{"Emp": d})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Errorf("post-rejection transaction flagged: %+v", out.Violations)
	}
}

func TestAssertionMustBeMaterialized(t *testing.T) {
	db := corpus.NewDatabase(corpus.Config{Departments: 2, EmpsPerDept: 2})
	d, err := dag.FromTree(db.ProblemDept())
	if err != nil {
		t.Fatal(err)
	}
	m, err := maintain.New(d, db.Store, cost.PageIO{}, tracks.RootSet(d))
	if err != nil {
		t.Fatal(err)
	}
	// A non-materialized node cannot back an assertion.
	var nonRoot *dag.EqNode
	for _, e := range d.NonLeafEqs() {
		if !d.IsRoot(e) {
			nonRoot = e
			break
		}
	}
	if _, err := ic.New(m, ic.Assertion{Name: "bad", View: nonRoot}); err == nil {
		t.Error("assertion over unmaterialized view should be rejected")
	}
}
