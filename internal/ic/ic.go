// Package ic implements SQL-92 assertion (complex integrity constraint)
// checking on top of incremental view maintenance, per the paper's
// Sections 1 and 6: "These integrity constraints can be modeled as
// materialized views whose results are required to be empty", and
// "incrementally checking them may be quite costly unless additional
// views are materialized".
//
// A Checker owns a maintenance engine whose roots are the assertion
// views (plus any ordinary materialized views). Checking is maintenance:
// once propagation has computed each assertion view's delta ΔV_a, the
// verdict is known, so a violating transaction is rejected before any
// relation, view or log record is written.
package ic

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Assertion names a must-stay-empty view.
type Assertion struct {
	Name string
	View *dag.EqNode
}

// Violation is one assertion a transaction would leave non-empty.
type Violation struct {
	Assertion string
	Rows      []storage.Row
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("assertion %s violated by %d tuple(s)", v.Assertion, len(v.Rows))
}

// Checker runs transactions under assertion checking.
type Checker struct {
	M          *maintain.Maintainer
	Assertions []Assertion

	// Per-transaction scratch: the window of one, the bound verdict
	// (bound once so a transaction does not allocate a method value),
	// and the violations the verdict found.
	win        [1]txn.Transaction
	verdict    maintain.Verdict
	violations []Violation
}

// New builds a checker over an existing maintainer. Every assertion view
// must be materialized by the maintainer (it is a root of the DAG).
func New(m *maintain.Maintainer, assertions ...Assertion) (*Checker, error) {
	for _, a := range assertions {
		if _, ok := m.ViewRel(a.View); !ok {
			return nil, fmt.Errorf("ic: assertion %s view %s is not materialized", a.Name, a.View)
		}
	}
	c := &Checker{M: m, Assertions: assertions}
	c.verdict = c.check
	return c, nil
}

// Outcome reports one checked transaction.
type Outcome struct {
	// Report is the transaction's window report; on rejection it carries
	// the query I/O spent reaching the verdict and nothing else.
	Report     *maintain.BatchReport
	Violations []Violation
	// RolledBack reports a rejected transaction. Nothing of it was ever
	// written: the verdict runs before the first storage write.
	RolledBack bool
}

// OK reports whether the transaction satisfied every assertion.
func (o *Outcome) OK() bool { return len(o.Violations) == 0 }

// Execute maintains all views under the transaction — a window of one —
// and rejects it, before anything is written, when it would leave any
// assertion view non-empty.
func (c *Checker) Execute(t *txn.Type, updates map[string]*delta.Delta) (*Outcome, error) {
	c.win[0] = txn.Transaction{Type: t, Updates: updates}
	defer func() { c.win[0] = txn.Transaction{} }()
	if len(c.Assertions) == 0 {
		rep, err := c.M.ApplyBatch(c.win[:])
		if err != nil {
			return nil, err
		}
		return &Outcome{Report: rep}, nil
	}
	// The verdict runs with the group committer detached, and an
	// accepted transaction is committed after its window: the mutation
	// hook stages its base deltas as they are applied, and a rejected
	// one stages nothing, so Commit returns the unchanged durability
	// point.
	com := c.M.Committer
	c.M.Committer = nil
	c.violations = nil
	rep, applied, err := c.M.ApplyChecked(c.win[:], c.verdict)
	c.M.Committer = com
	if err != nil {
		return nil, err
	}
	out := &Outcome{Report: rep, Violations: c.violations, RolledBack: !applied}
	c.violations = nil
	if com != nil {
		lsn, err := com.Commit(1)
		if err != nil {
			return nil, fmt.Errorf("ic: commit: %w", err)
		}
		rep.LSN = lsn
	}
	return out, nil
}

// check is the window verdict: each assertion's post-state is its
// current contents ⊎ ΔV_a, and any non-empty post-state rejects. An
// empty view with an empty delta — every clean transaction — is decided
// without touching either.
func (c *Checker) check(deltas map[int]*delta.Delta) bool {
	for _, a := range c.Assertions {
		rel, _ := c.M.ViewRel(a.View)
		d := deltas[a.View.ID]
		if rel.Card() == 0 && d.Empty() {
			continue
		}
		rows := rel.ScanFree()
		if !d.Empty() {
			rows = delta.ApplyTo(rows, d)
		}
		if len(rows) > 0 {
			// Violations outlive the window's arena and the view's
			// storage, so they own their tuples.
			for i := range rows {
				rows[i].Tuple = rows[i].Tuple.Clone()
			}
			c.violations = append(c.violations, Violation{Assertion: a.Name, Rows: rows})
		}
	}
	return len(c.violations) > 0
}
