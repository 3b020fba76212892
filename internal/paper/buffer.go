package paper

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// BufferRow is one point of the buffer-residency ablation.
type BufferRow struct {
	Capacity  int // pages; 0 = cold (the paper's assumption)
	TotalIO   int64
	PerTxn    float64
	HitRate   float64
	Estimated float64 // the cold-model estimate, for reference
}

// SweepBuffer is ablation A5: the paper's §3.6 assumes nothing is
// memory-resident ("none of the data is memory-resident initially"); this
// sweep attaches an LRU page buffer of growing capacity to the store and
// re-runs a skewed transaction stream (80% of updates hit 20% of
// departments) under the {N3} strategy, measuring how far reality departs
// from the cold-cache cost model. The optimizer's *choice* is unchanged —
// only the absolute I/O drops — which is why the paper can afford the
// cold assumption.
func SweepBuffer(cfg corpus.Config, capacities []int, nTxns int) ([]BufferRow, string, error) {
	var rows []BufferRow
	for _, capacity := range capacities {
		f, err := NewFixture(cfg)
		if err != nil {
			return nil, "", err
		}
		vs := tracks.RootSet(f.D)
		vs[f.N3.ID] = true
		est, _ := f.Cost.WeightedCost(vs, f.Types)
		f.DB.Store.Buffer = storage.NewBuffer(capacity)
		m, err := maintain.New(f.D, f.DB.Store, cost.PageIO{}, vs)
		if err != nil {
			return nil, "", err
		}
		hot := cfg.Departments / 5
		if hot == 0 {
			hot = 1
		}
		var total int64
		for i := 0; i < nTxns; i++ {
			dept := i % cfg.Departments
			if i%5 != 0 { // 80% of traffic on the hot 20%
				dept = i % hot
			}
			var ty *txn.Type
			var updates map[string]*delta.Delta
			if i%2 == 0 {
				d, err := f.DB.EmpSalaryDelta(dept, i%cfg.EmpsPerDept, int64(100+i%90))
				if err != nil {
					return nil, "", err
				}
				ty, updates = f.Types[0], map[string]*delta.Delta{"Emp": d}
			} else {
				d, err := f.DB.DeptBudgetDelta(dept, int64(4000+i))
				if err != nil {
					return nil, "", err
				}
				ty, updates = f.Types[1], map[string]*delta.Delta{"Dept": d}
			}
			rep, err := m.ApplyBatch([]txn.Transaction{{Type: ty, Updates: updates}})
			if err != nil {
				return nil, "", err
			}
			total += rep.PaperTotal()
		}
		row := BufferRow{
			Capacity:  capacity,
			TotalIO:   total,
			PerTxn:    float64(total) / float64(nTxns),
			Estimated: est,
		}
		if b := f.DB.Store.Buffer; b != nil && b.Hits+b.Misses > 0 {
			row.HitRate = float64(b.Hits) / float64(b.Hits+b.Misses)
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString("Ablation A5: LRU buffer residency vs the cold-cache cost model\n")
	fmt.Fprintf(&b, "(skewed stream, {N3} strategy; cold-model estimate %.4g I/Os per txn)\n", rows[0].Estimated)
	fmt.Fprintf(&b, "%10s %10s %10s %8s\n", "buf pages", "total I/O", "I/O per txn", "hit rate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %10d %10.3g %8.2f\n", r.Capacity, r.TotalIO, r.PerTxn, r.HitRate)
	}
	return rows, b.String(), nil
}
