package paper

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// BatchRow is one point of the batch-size ablation.
type BatchRow struct {
	BatchSize int
	// SameDeptIO is one k-tuple transaction within a single department:
	// the probes share one key and the k child changes collapse onto one
	// aggregate group, so the whole batch approaches a constant cost.
	SameDeptIO int64
	PerTuple   float64
	// CrossDeptIO is one k-tuple transaction spread over k departments:
	// every tuple needs its own probe, group and index bucket, so the
	// cost is linear (no sharing to exploit).
	CrossDeptIO int64
	// SingletonsIO is the same-department updates run one transaction at
	// a time (the paper's per-transaction granularity).
	SingletonsIO int64
}

// SweepBatch is ablation A6: the paper's own cost arithmetic amortizes
// work over a batch (its 10-tuple >Dept modification costs 21 I/Os, not
// 10×3, because all ten tuples share one department). This sweep modifies
// k employees' salaries under the {N3} strategy in three ways — one
// same-department batch, one cross-department batch, and k singleton
// transactions — and measures each on the live engine.
func SweepBatch(cfg corpus.Config, sizes []int) ([]BatchRow, string, error) {
	var rows []BatchRow
	for _, k := range sizes {
		if k > cfg.Departments || k > cfg.EmpsPerDept {
			return nil, "", fmt.Errorf("paper: batch %d exceeds the instance (%d depts × %d emps)",
				k, cfg.Departments, cfg.EmpsPerDept)
		}
		same, err := runBatch(cfg, k, sameDeptBatch)
		if err != nil {
			return nil, "", err
		}
		cross, err := runBatch(cfg, k, crossDeptBatch)
		if err != nil {
			return nil, "", err
		}
		single, err := runBatch(cfg, k, singletons)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, BatchRow{
			BatchSize: k, SameDeptIO: same,
			PerTuple:     float64(same) / float64(k),
			CrossDeptIO:  cross,
			SingletonsIO: single,
		})
	}
	var b strings.Builder
	b.WriteString("Ablation A6: batching amortization ({N3} strategy, k salary changes)\n")
	fmt.Fprintf(&b, "%6s %14s %12s %14s %14s\n", "k", "same-dept I/O", "I/O per tup", "cross-dept I/O", "singletons I/O")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %14d %12.3g %14d %14d\n", r.BatchSize, r.SameDeptIO, r.PerTuple, r.CrossDeptIO, r.SingletonsIO)
	}
	return rows, b.String(), nil
}

// batch shapes for runBatch.
const (
	sameDeptBatch = iota
	crossDeptBatch
	singletons
)

func runBatch(cfg corpus.Config, k int, shape int) (int64, error) {
	f, err := NewFixture(cfg)
	if err != nil {
		return 0, err
	}
	vs := tracks.RootSet(f.D)
	vs[f.N3.ID] = true
	m, err := maintain.New(f.D, f.DB.Store, cost.PageIO{}, vs)
	if err != nil {
		return 0, err
	}
	ty := &txn.Type{
		Name: fmt.Sprintf(">Emp×%d", k), Weight: 1,
		Updates: []txn.RelUpdate{{
			Rel: "Emp", Kind: txn.Modify, Size: float64(k), Cols: []string{"Salary"},
		}},
	}
	schema := f.DB.Store.MustGet("Emp").Def.Schema
	change := func(dept, emp, i int) (value.Tuple, value.Tuple) {
		old := value.Tuple{
			value.NewString(corpus.EmpName(dept, emp)),
			value.NewString(corpus.DeptName(dept)),
			value.NewInt(corpus.BaseSalary),
		}
		newT := old.Clone()
		newT[2] = value.NewInt(int64(150 + i))
		return old, newT
	}
	var total int64
	switch shape {
	case sameDeptBatch, crossDeptBatch:
		d := delta.New(schema)
		for i := 0; i < k; i++ {
			var old, newT value.Tuple
			if shape == sameDeptBatch {
				old, newT = change(0, i, i)
			} else {
				old, newT = change(i, 0, i)
			}
			d.Modify(old, newT, 1)
		}
		rep, err := m.ApplyBatch([]txn.Transaction{{Type: ty, Updates: map[string]*delta.Delta{"Emp": d}}})
		if err != nil {
			return 0, err
		}
		total = rep.PaperTotal()
	default: // singletons, same department
		single := txn.PaperTypes()[0]
		for i := 0; i < k; i++ {
			old, newT := change(0, i, i)
			d := delta.New(schema)
			d.Modify(old, newT, 1)
			rep, err := m.ApplyBatch([]txn.Transaction{{Type: single, Updates: map[string]*delta.Delta{"Emp": d}}})
			if err != nil {
				return 0, err
			}
			total += rep.PaperTotal()
		}
	}
	return total, nil
}
