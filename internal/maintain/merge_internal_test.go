package maintain

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestCombineGroupNullPartials pins the cross-shard merge of one group's
// partials: a NULL partial (every member on that shard had a NULL
// argument) is an empty fold, so it never absorbs another shard's value,
// and two NULL partials merge to NULL, not 0.
func TestCombineGroupNullPartials(t *testing.T) {
	null, five := value.NewNull(), value.NewInt(5)
	cases := []struct {
		f    algebra.AggFunc
		a, b value.Value
		want value.Value
	}{
		{algebra.Sum, null, null, null},
		{algebra.Sum, null, five, five},
		{algebra.Sum, five, null, five},
		{algebra.Sum, value.NewInt(2), value.NewFloat(1.5), value.NewFloat(3.5)},
		{algebra.Count, value.NewInt(0), value.NewInt(2), value.NewInt(2)},
		{algebra.Min, null, five, five},
		{algebra.Min, five, null, five},
		{algebra.Min, value.NewInt(7), five, five},
		{algebra.Max, null, five, five},
		{algebra.Max, five, null, five},
		{algebra.Max, null, null, null},
	}
	key := value.Tuple{value.NewString("g")}
	for _, c := range cases {
		vp := ViewPartition{NGroup: 1, Aggs: []algebra.AggSpec{{Func: c.f}}}
		partials := []map[string]storage.Row{
			{"g": {Tuple: value.Tuple{key[0], c.a}, Count: 1}},
			{"g": {Tuple: value.Tuple{key[0], c.b}, Count: 1}},
		}
		got, found := combineGroup(partials, "g", vp)
		if !found {
			t.Fatalf("%s(%v, %v): group not found", c.f, c.a, c.b)
		}
		if v := got.Tuple[1]; v.Kind != c.want.Kind || !value.Equal(v, c.want) {
			t.Errorf("%s(%v, %v) = %v, want %v", c.f, c.a, c.b, v, c.want)
		}
	}
}
