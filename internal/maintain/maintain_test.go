package maintain_test

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// scenario bundles a paper-size database, the expanded DAG and the
// Figure 2 node handles.
type scenario struct {
	db     *corpus.Database
	d      *dag.DAG
	n3, n4 *dag.EqNode
}

func newScenario(t *testing.T, cfg corpus.Config) *scenario {
	t.Helper()
	db := corpus.NewDatabase(cfg)
	d, err := dag.FromTree(db.ProblemDept())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 200); err != nil {
		t.Fatal(err)
	}
	s := &scenario{db: db, d: d}
	s.n3 = d.FindEq(db.SumOfSals())
	join := algebra.NewJoin(
		[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
		algebra.Scan(db.Catalog.MustGet("Emp")),
		algebra.Scan(db.Catalog.MustGet("Dept")),
	)
	s.n4 = d.FindEq(join)
	if s.n3 == nil || s.n4 == nil {
		t.Fatal("missing N3/N4 in DAG")
	}
	return s
}

func (s *scenario) maintainer(t *testing.T, extra ...*dag.EqNode) *maintain.Maintainer {
	t.Helper()
	vs := tracks.RootSet(s.d)
	for _, e := range extra {
		vs[e.ID] = true
	}
	m, err := maintain.New(s.d, s.db.Store, cost.PageIO{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (s *scenario) empTxn(t *testing.T, i, j int, sal int64) (*txn.Type, map[string]*delta.Delta) {
	t.Helper()
	d, err := s.db.EmpSalaryDelta(i, j, sal)
	if err != nil {
		t.Fatal(err)
	}
	return txn.PaperTypes()[0], map[string]*delta.Delta{"Emp": d}
}

func (s *scenario) deptTxn(t *testing.T, i int, budget int64) (*txn.Type, map[string]*delta.Delta) {
	t.Helper()
	d, err := s.db.DeptBudgetDelta(i, budget)
	if err != nil {
		t.Fatal(err)
	}
	return txn.PaperTypes()[1], map[string]*delta.Delta{"Dept": d}
}

func (s *scenario) checkDrift(t *testing.T, m *maintain.Maintainer, nodes ...*dag.EqNode) {
	t.Helper()
	for _, e := range append([]*dag.EqNode{s.d.Root}, nodes...) {
		drift, err := m.Drift(e)
		if err != nil {
			t.Fatal(err)
		}
		if drift != "" {
			t.Fatalf("view %s drifted from recomputation: %s", e, drift)
		}
	}
}

// TestMeasuredIOMatchesPaperTables runs the actual maintenance engine on
// the full-size paper instance and checks that the *measured* page I/Os
// equal the paper's §3.6 combined table: 13/11 for no additional views,
// 5/2 for {N3}, 16/32 for {N4}.
func TestMeasuredIOMatchesPaperTables(t *testing.T) {
	cases := []struct {
		name              string
		extra             func(*scenario) []*dag.EqNode
		wantEmp, wantDept int64
	}{
		{"empty", func(s *scenario) []*dag.EqNode { return nil }, 13, 11},
		{"N3", func(s *scenario) []*dag.EqNode { return []*dag.EqNode{s.n3} }, 5, 2},
		{"N4", func(s *scenario) []*dag.EqNode { return []*dag.EqNode{s.n4} }, 16, 32},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newScenario(t, corpus.PaperConfig())
			extra := c.extra(s)
			m := s.maintainer(t, extra...)

			ty, up := s.empTxn(t, 3, 4, 250)
			rep, err := m.ApplyBatch([]txn.Transaction{{Type: ty, Updates: up}})
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.PaperTotal(); got != c.wantEmp {
				t.Errorf(">Emp measured = %d, want %d (query %v, view %v)",
					got, c.wantEmp, rep.QueryIO, rep.ViewIO)
			}
			s.checkDrift(t, m, extra...)

			ty, up = s.deptTxn(t, 7, 123456)
			rep, err = m.ApplyBatch([]txn.Transaction{{Type: ty, Updates: up}})
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.PaperTotal(); got != c.wantDept {
				t.Errorf(">Dept measured = %d, want %d (query %v, view %v)",
					got, c.wantDept, rep.QueryIO, rep.ViewIO)
			}
			s.checkDrift(t, m, extra...)
		})
	}
}

// TestLongTransactionSequenceStaysConsistent drives a mixed sequence of
// salary changes, budget changes, hires and departures through the {N3}
// strategy and checks the views never drift from full recomputation, and
// the assertion view flags exactly the overspent departments.
func TestLongTransactionSequenceStaysConsistent(t *testing.T) {
	s := newScenario(t, corpus.Config{Departments: 20, EmpsPerDept: 5})
	m := s.maintainer(t, s.n3)
	empT, deptT := txn.PaperTypes()[0], txn.PaperTypes()[1]
	hire := &txn.Type{Name: "+Emp", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Insert, Size: 1}}}
	fire := &txn.Type{Name: "-Emp", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Delete, Size: 1}}}

	apply := func(ty *txn.Type, d *delta.Delta, rel string) {
		t.Helper()
		if _, err := m.ApplyBatch([]txn.Transaction{{Type: ty, Updates: map[string]*delta.Delta{rel: d}}}); err != nil {
			t.Fatal(err)
		}
		s.checkDrift(t, m, s.n3)
	}

	for step := 0; step < 30; step++ {
		switch step % 4 {
		case 0:
			d, err := s.db.EmpSalaryDelta(step%20, step%5, int64(100+37*step))
			if err != nil {
				t.Fatal(err)
			}
			apply(empT, d, "Emp")
		case 1:
			d, err := s.db.DeptBudgetDelta(step%20, int64(1000+step))
			if err != nil {
				t.Fatal(err)
			}
			apply(deptT, d, "Dept")
		case 2:
			apply(hire, s.db.EmpInsertDelta(
				"newbie"+corpus.EmpName(step, 0), corpus.DeptName(step%20), 90), "Emp")
		default:
			d, err := s.db.EmpDeleteDelta(step%20, (step+1)%5)
			if err != nil {
				t.Skip("employee already deleted in a previous round")
			}
			apply(fire, d, "Emp")
		}
	}
}

// TestViolationAppearsInRootView: pushing a department over budget makes
// the maintained ProblemDept view non-empty; restoring the salary empties
// it again.
func TestViolationAppearsInRootView(t *testing.T) {
	s := newScenario(t, corpus.Config{Departments: 5, EmpsPerDept: 3})
	m := s.maintainer(t, s.n3)
	empT := txn.PaperTypes()[0]

	d, err := s.db.EmpSalaryDelta(2, 0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyBatch([]txn.Transaction{{Type: empT, Updates: map[string]*delta.Delta{"Emp": d}}}); err != nil {
		t.Fatal(err)
	}
	rows := m.Contents(s.d.Root)
	if len(rows) != 1 {
		t.Fatalf("ProblemDept rows = %d, want 1", len(rows))
	}
	if got := rows[0].Tuple[0].S; got != corpus.DeptName(2) {
		t.Errorf("violating department = %q", got)
	}
	s.checkDrift(t, m, s.n3)

	d, err = s.db.EmpSalaryDelta(2, 0, corpus.BaseSalary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyBatch([]txn.Transaction{{Type: empT, Updates: map[string]*delta.Delta{"Emp": d}}}); err != nil {
		t.Fatal(err)
	}
	if rows := m.Contents(s.d.Root); len(rows) != 0 {
		t.Fatalf("ProblemDept should be empty again, has %d rows", len(rows))
	}
	s.checkDrift(t, m, s.n3)
}

// nopCommitter is a WindowCommitter that makes nothing durable.
type nopCommitter struct{}

func (nopCommitter) Commit(int) (uint64, error) { return 0, nil }
func (nopCommitter) BeginWindow(delta.Coalesced, int) func() (uint64, error) {
	return func() (uint64, error) { return 0, nil }
}

// TestApplyCheckedRejectsBeforeWriting: a rejected window sees every
// propagated delta, then writes no relation and fires no window hook,
// yet reports the query I/O its verdict cost. A verdict refuses to run
// under an attached committer, which would already be logging the
// window.
func TestApplyCheckedRejectsBeforeWriting(t *testing.T) {
	s := newScenario(t, corpus.Config{Departments: 5, EmpsPerDept: 3})
	m := s.maintainer(t, s.n3)
	hooked := 0
	m.SetWindowHook(func(maintain.WindowUpdate) { hooked++ })
	emp := s.db.Store.MustGet("Emp")
	empBefore := emp.ScanFree()
	for i, r := range empBefore {
		empBefore[i].Tuple = r.Tuple.Clone()
	}
	n3Before := sortedContents(m, s.n3)

	ty, up := s.empTxn(t, 1, 1, 999_999)
	var sawRoot bool
	rep, applied, err := m.ApplyChecked([]txn.Transaction{{Type: ty, Updates: up}},
		func(deltas map[int]*delta.Delta) bool {
			sawRoot = !deltas[s.d.Root.ID].Empty()
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if applied || !sawRoot {
		t.Fatalf("applied=%v, verdict saw the root delta=%v", applied, sawRoot)
	}
	if hooked != 0 {
		t.Errorf("a rejected window fired the hook %d times", hooked)
	}
	if rep.QueryIO.Total() == 0 || rep.ViewIO.Total()+rep.RootIO.Total()+rep.BaseIO.Total() != 0 {
		t.Errorf("rejected window I/O: query %v, view %v, root %v, base %v",
			rep.QueryIO, rep.ViewIO, rep.RootIO, rep.BaseIO)
	}
	if !rowsEqual(emp.ScanFree(), empBefore) || !rowsEqual(sortedContents(m, s.n3), n3Before) {
		t.Error("a rejected window wrote a relation")
	}
	s.checkDrift(t, m, s.n3)

	// The same transaction, accepted, goes through.
	if _, applied, err = m.ApplyChecked([]txn.Transaction{{Type: ty, Updates: up}},
		func(map[int]*delta.Delta) bool { return false }); err != nil || !applied || hooked != 1 {
		t.Fatalf("accepted window: applied=%v hooked=%d err=%v", applied, hooked, err)
	}
	s.checkDrift(t, m, s.n3)

	m.Committer = nopCommitter{}
	if _, _, err := m.ApplyChecked([]txn.Transaction{{Type: ty, Updates: up}},
		func(map[int]*delta.Delta) bool { return false }); err == nil {
		t.Error("a verdict ran under an attached committer")
	}
}

// TestGroupBirthAndDeathThroughEngine: hiring the first employee of a new
// department and firing a department's last employee keep the N3 view and
// sidecar correct.
func TestGroupBirthAndDeathThroughEngine(t *testing.T) {
	s := newScenario(t, corpus.Config{Departments: 3, EmpsPerDept: 1})
	m := s.maintainer(t, s.n3)
	hire := &txn.Type{Name: "+Emp", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Insert, Size: 1}}}
	fire := &txn.Type{Name: "-Emp", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Delete, Size: 1}}}

	// Hire into a brand-new department (no Dept row: the join view stays
	// empty but N3 gains a group).
	if _, err := m.ApplyBatch([]txn.Transaction{{Type: hire, Updates: map[string]*delta.Delta{
		"Emp": s.db.EmpInsertDelta("solo", "d-new", 500),
	}}}); err != nil {
		t.Fatal(err)
	}
	s.checkDrift(t, m, s.n3)
	n3rel, _ := m.ViewRel(s.n3)
	if n3rel.Card() != 4 {
		t.Errorf("N3 card = %d, want 4 (3 departments + d-new)", n3rel.Card())
	}

	// Fire the only employee of department 0: its group must vanish.
	d, err := s.db.EmpDeleteDelta(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyBatch([]txn.Transaction{{Type: fire, Updates: map[string]*delta.Delta{"Emp": d}}}); err != nil {
		t.Fatal(err)
	}
	s.checkDrift(t, m, s.n3)
	if n3rel.Card() != 3 {
		t.Errorf("N3 card = %d after death, want 3", n3rel.Card())
	}
}

// TestEstimatedVsMeasuredAgreeAcrossScales: the structural agreement
// between the cost model and the engine must hold across database sizes,
// not just the paper's 1000×10 instance.
func TestEstimatedVsMeasuredAgreeAcrossScales(t *testing.T) {
	for _, cfg := range []corpus.Config{
		{Departments: 10, EmpsPerDept: 3},
		{Departments: 50, EmpsPerDept: 20},
	} {
		s := newScenario(t, cfg)
		c := tracks.NewCosting(s.d, cost.PageIO{})
		vs := tracks.NewViewSet(s.d.Root, s.n3)
		m := s.maintainer(t, s.n3)

		ty, up := s.empTxn(t, 1, 1, 500)
		best, _ := c.CostViewSet(vs, ty)
		rep, err := m.ApplyBatch([]txn.Transaction{{Type: ty, Updates: up}})
		if err != nil {
			t.Fatal(err)
		}
		if float64(rep.PaperTotal()) != best.Total() {
			t.Errorf("cfg %+v: measured %d != estimated %g", cfg, rep.PaperTotal(), best.Total())
		}
		s.checkDrift(t, m, s.n3)
	}
}
