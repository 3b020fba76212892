//go:build !race

// The race detector changes allocation counts (under it sync.Pool, which
// the obs histograms use for shard hints, drops items at random), so
// this guard runs in ordinary builds only.

package mvmaint_test

import (
	"testing"

	mvmaint "repro"
	"repro/internal/delta"
	"repro/internal/value"
)

// servingTxnAllocCeiling bounds the allocations of one
// Serving.ExecuteTxn of a one-row salary update on the corporate schema:
// the assertion is checked and the served view does not change, so the
// hub goroutine stays idle and only the writer's allocations count. 23
// is what the former separate per-transaction write path allocated
// here; the window-of-one path that replaced it must not cost more.
const servingTxnAllocCeiling = 23

// TestServingExecuteTxnAllocs guards the per-write allocation cost of
// the in-process write path.
func TestServingExecuteTxnAllocs(t *testing.T) {
	db := mvmaint.Open()
	db.MustExec(durableSchemaDDL + `
CREATE VIEW BigSpenders (DName) AS
SELECT Dept.DName FROM Emp, Dept
WHERE Dept.DName = Emp.DName
GROUP BY Dept.DName, Budget
HAVING SUM(Salary) * 5 > Budget * 4;
`)
	db.MustExec(durableData(8, 4))
	sys, err := db.Build([]string{"BigSpenders", "DeptConstraint"}, mvmaint.Config{
		Workload: paperWorkload(),
		Method:   mvmaint.Exhaustive,
	})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := sys.NewServing(mvmaint.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	schema := db.Catalog.MustGet("Emp").Schema
	row := func(salary int64) value.Tuple {
		return value.Tuple{value.NewString("e003_01"), value.NewString("d003"), value.NewInt(salary)}
	}
	raise, cut := delta.New(schema), delta.New(schema)
	raise.Modify(row(100), row(150), 1)
	cut.Modify(row(150), row(100), 1)
	ups := [2]map[string]*delta.Delta{{"Emp": raise}, {"Emp": cut}}
	ty := paperWorkload()[0]
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sv.ExecuteTxn(ty, ups[k%2]); err != nil {
			t.Fatal(err)
		}
		k++
	})
	t.Logf("%.1f allocs per Serving.ExecuteTxn", allocs)
	if allocs > servingTxnAllocCeiling {
		t.Fatalf("Serving.ExecuteTxn allocates %.1f times, ceiling %d", allocs, servingTxnAllocCeiling)
	}
}
