package ic_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/ic"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// verdictSide is one corporate database maintained under a fixed view
// set: the root ProblemDept, the SumOfSals aggregate and a random subset
// of the other non-leaf nodes.
type verdictSide struct {
	db    *corpus.Database
	d     *dag.DAG
	m     *maintain.Maintainer
	views []*dag.EqNode
}

func newVerdictSide(t *testing.T, cfg corpus.Config, seed int64) *verdictSide {
	t.Helper()
	db := corpus.NewDatabase(cfg)
	d, err := dag.FromTree(db.ProblemDept())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 200); err != nil {
		t.Fatal(err)
	}
	vs := tracks.RootSet(d)
	vs[d.FindEq(db.SumOfSals()).ID] = true
	rng := rand.New(rand.NewSource(seed))
	for _, e := range d.NonLeafEqs() {
		if rng.Intn(3) == 0 {
			vs[e.ID] = true
		}
	}
	m, err := maintain.New(d, db.Store, cost.PageIO{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	s := &verdictSide{db: db, d: d, m: m}
	for _, e := range d.NonLeafEqs() {
		if vs[e.ID] {
			s.views = append(s.views, e)
		}
	}
	return s
}

// drift fails the test if any materialized view differs from full
// recomputation.
func (s *verdictSide) drift(t *testing.T, who string, step int) {
	t.Helper()
	for _, e := range s.views {
		drift, err := s.m.Drift(e)
		if err != nil {
			t.Fatal(err)
		}
		if drift != "" {
			t.Fatalf("step %d: %s view %s drifted: %s", step, who, e, drift)
		}
	}
}

// canonical renders a bag of rows as its sorted (key bytes, count)
// pairs, so two relations compare byte for byte whatever their scan
// order.
func canonical(rows []storage.Row) []string {
	var enc value.KeyEncoder
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%x×%d", enc.Key(r.Tuple), r.Count))
	}
	sort.Strings(out)
	return out
}

func sameBag(a, b []storage.Row) bool {
	ca, cb := canonical(a), canonical(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if !bytes.Equal([]byte(ca[i]), []byte(cb[i])) {
			return false
		}
	}
	return true
}

// inverse swaps every change's old and new tuples (owned copies).
func inverse(updates map[string]*delta.Delta) map[string]*delta.Delta {
	clone := func(t value.Tuple) value.Tuple {
		if t == nil {
			return nil
		}
		return t.Clone()
	}
	out := map[string]*delta.Delta{}
	for rel, d := range updates {
		inv := delta.New(d.Schema)
		for _, c := range d.Changes {
			inv.Changes = append(inv.Changes, delta.Change{Old: clone(c.New), New: clone(c.Old), Count: c.Count})
		}
		out[rel] = inv
	}
	return out
}

// TestVerdictMatchesRecomputation is the property test of the verdict
// the checker reaches from ΔV_a before anything is written. An oracle
// maintainer over an identical database applies every transaction,
// decides the assertion by recomputing it through exec, and undoes a
// violator by applying its inverse as a new window. The two must agree
// on every verdict and on the violation rows, and must hold byte-equal
// base relations and views after every step, with no view drifting from
// recomputation. SumOfSals is always materialized: its sidecar is the
// post-window state propagation computes, which a rejected window must
// not leave behind for the next accepted window on the same group.
func TestVerdictMatchesRecomputation(t *testing.T) {
	empMod, deptMod := txn.PaperTypes()[0], txn.PaperTypes()[1]
	hire := &txn.Type{Name: "+Emp", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Insert, Size: 1}}}
	fire := &txn.Type{Name: "-Emp", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Delete, Size: 1}}}

	trials, steps := 16, 60
	if testing.Short() {
		trials = 4
	}
	var rejected, accepted int
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + trial)))
			cfg := corpus.Config{Departments: 3 + rng.Intn(4), EmpsPerDept: 2 + rng.Intn(3)}
			seed := rng.Int63()
			got, want := newVerdictSide(t, cfg, seed), newVerdictSide(t, cfg, seed)
			checker, err := ic.New(got.m, ic.Assertion{Name: "DeptConstraint", View: got.d.Root})
			if err != nil {
				t.Fatal(err)
			}
			budgetCap := int64(cfg.EmpsPerDept*150 + 400)

			for step := 0; step < steps; step++ {
				// Draw one transaction against each side's own state (the
				// two states are equal, so the deltas are too).
				i, j := rng.Intn(cfg.Departments), rng.Intn(cfg.EmpsPerDept+2)
				salary, budget := int64(50+rng.Intn(450)), rng.Int63n(budgetCap)
				_, missing := got.db.EmpSalaryDelta(i, j, salary)
				var (
					ty  *txn.Type
					gen func(*corpus.Database) (map[string]*delta.Delta, error)
				)
				r := rng.Intn(10)
				switch {
				case r < 3:
					ty = deptMod
					gen = func(db *corpus.Database) (map[string]*delta.Delta, error) {
						d, err := db.DeptBudgetDelta(i, budget)
						return map[string]*delta.Delta{"Dept": d}, err
					}
				case missing != nil:
					ty = hire
					gen = func(db *corpus.Database) (map[string]*delta.Delta, error) {
						return map[string]*delta.Delta{"Emp": db.EmpInsertDelta(
							corpus.EmpName(i, j), corpus.DeptName(i), salary)}, nil
					}
				case r < 9:
					ty = empMod
					gen = func(db *corpus.Database) (map[string]*delta.Delta, error) {
						d, err := db.EmpSalaryDelta(i, j, salary)
						return map[string]*delta.Delta{"Emp": d}, err
					}
				default:
					ty = fire
					gen = func(db *corpus.Database) (map[string]*delta.Delta, error) {
						d, err := db.EmpDeleteDelta(i, j)
						return map[string]*delta.Delta{"Emp": d}, err
					}
				}
				upGot, err := gen(got.db)
				if err != nil {
					t.Fatal(err)
				}
				upWant, err := gen(want.db)
				if err != nil {
					t.Fatal(err)
				}

				out, err := checker.Execute(ty, upGot)
				if err != nil {
					t.Fatalf("step %d (%s): %v", step, ty.Name, err)
				}

				if _, err := want.m.ApplyBatch([]txn.Transaction{{Type: ty, Updates: upWant}}); err != nil {
					t.Fatal(err)
				}
				res, err := want.m.Oracle(want.d.Root)
				if err != nil {
					t.Fatal(err)
				}
				violated := res.Card() > 0
				if violated {
					if _, err := want.m.ApplyBatch([]txn.Transaction{{Type: nil, Updates: inverse(upWant)}}); err != nil {
						t.Fatal(err)
					}
				}

				if out.RolledBack != violated || out.OK() == violated {
					t.Fatalf("step %d (%s): checker rejected=%v ok=%v, recomputation violated=%v",
						step, ty.Name, out.RolledBack, out.OK(), violated)
				}
				if violated {
					rejected++
					if len(out.Violations) != 1 || out.Violations[0].Assertion != "DeptConstraint" {
						t.Fatalf("step %d: violations = %v", step, out.Violations)
					}
					if !sameBag(out.Violations[0].Rows, res.Rows) {
						t.Fatalf("step %d (%s): violation rows %v, recomputation %v",
							step, ty.Name, canonical(out.Violations[0].Rows), canonical(res.Rows))
					}
				} else {
					accepted++
				}

				for _, rel := range []string{"Emp", "Dept"} {
					if !sameBag(got.db.Store.MustGet(rel).ScanFree(), want.db.Store.MustGet(rel).ScanFree()) {
						t.Fatalf("step %d (%s): base relation %s differs from the oracle", step, ty.Name, rel)
					}
				}
				for k, e := range got.views {
					if !sameBag(got.m.Contents(e), want.m.Contents(want.views[k])) {
						t.Fatalf("step %d (%s): view %s differs from the oracle", step, ty.Name, e)
					}
				}
				got.drift(t, "checker", step)
				want.drift(t, "oracle", step)
			}
		})
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("vacuous stream: %d rejected, %d accepted", rejected, accepted)
	}
	t.Logf("%d rejected, %d accepted", rejected, accepted)
}
