package algebra

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// TestAccMergeProperty: over random bags with NULLs, folding the whole
// bag equals merging the folds of any two-way split — both merging
// accumulators directly and merging the parts' final values through
// Partial (the cross-shard merge of stored partials). This pins the
// shard merge to the fold exec and full-group maintenance use.
func TestAccMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xACC))
	pick := func() value.Value {
		switch rng.Intn(4) {
		case 0:
			return value.NewNull()
		case 1:
			// Halves keep float sums exact under any association.
			return value.NewFloat(float64(rng.Intn(21)-10) / 2)
		default:
			return value.NewInt(int64(rng.Intn(21) - 10))
		}
	}
	type row struct {
		v value.Value
		n int64
	}
	fold := func(rows []row) Acc {
		var a Acc
		for _, r := range rows {
			a.Add(r.v, r.n)
		}
		return a
	}
	same := func(a, b value.Value) bool { return a.Kind == b.Kind && value.Equal(a, b) }
	for trial := 0; trial < 2000; trial++ {
		rows := make([]row, rng.Intn(7))
		for i := range rows {
			rows[i] = row{pick(), 1 + int64(rng.Intn(3))}
		}
		cut := 0
		if len(rows) > 0 {
			cut = rng.Intn(len(rows) + 1)
		}
		all, p1, p2 := fold(rows), fold(rows[:cut]), fold(rows[cut:])
		merged := p1
		merged.Merge(p2)
		for _, f := range []AggFunc{Sum, Count, Avg, Min, Max} {
			if want, got := all.Final(f), merged.Final(f); !same(got, want) {
				t.Fatalf("trial %d %s: merge(fold) = %v, fold(all) = %v (rows %v cut %d)", trial, f, got, want, rows, cut)
			}
		}
		for _, f := range []AggFunc{Sum, Count, Min, Max} {
			lifted := Partial(f, p1.Final(f))
			lifted.Merge(Partial(f, p2.Final(f)))
			if want, got := all.Final(f), lifted.Final(f); !same(got, want) {
				t.Fatalf("trial %d %s: merge(Partial) = %v, fold(all) = %v (rows %v cut %d)", trial, f, got, want, rows, cut)
			}
		}
	}
}

// TestAccNullRules: NULL arguments are skipped; SUM/AVG/MIN/MAX of no
// non-NULL value are NULL; COUNT of them is 0; COUNT(*) counts rows.
func TestAccNullRules(t *testing.T) {
	var a Acc
	a.Add(value.NewNull(), 3)
	for _, f := range []AggFunc{Sum, Avg, Min, Max} {
		if v := a.Final(f); !v.IsNull() {
			t.Errorf("%s of only NULLs = %v, want NULL", f, v)
		}
	}
	if v := a.Final(Count); v != value.NewInt(0) {
		t.Errorf("COUNT of only NULLs = %v, want 0", v)
	}
	var rows Acc
	rows.AddRows(4)
	if v := rows.Final(Count); v != value.NewInt(4) {
		t.Errorf("COUNT(*) = %v, want 4", v)
	}
	a.Add(value.NewInt(4), 2)
	a.Add(value.NewInt(1), 1)
	want := map[AggFunc]value.Value{
		Sum: value.NewInt(9), Count: value.NewInt(3), Avg: value.NewFloat(3),
		Min: value.NewInt(1), Max: value.NewInt(4),
	}
	for f, w := range want {
		if v := a.Final(f); v != w {
			t.Errorf("%s = %v, want %v", f, v, w)
		}
	}
}
