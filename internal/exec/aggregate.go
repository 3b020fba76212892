package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

func aggregateResult(in *Result, a *algebra.Aggregate) (*Result, error) {
	gpos := make([]int, len(a.GroupBy))
	for i, g := range a.GroupBy {
		j, err := in.Schema.Resolve(g)
		if err != nil {
			return nil, err
		}
		gpos[i] = j
	}
	argFns := make([]*expr.Prog, len(a.Aggs))
	for i, ag := range a.Aggs {
		if ag.Arg == nil {
			if ag.Func != algebra.Count {
				return nil, fmt.Errorf("exec: %s requires an argument", ag.Func)
			}
			continue
		}
		f, err := expr.CompileProg(ag.Arg, in.Schema)
		if err != nil {
			return nil, err
		}
		argFns[i] = f
	}
	type group struct {
		key    value.Tuple
		states []algebra.Acc
	}
	groups := map[string]*group{}
	var order []string
	var enc value.KeyEncoder
	for _, row := range in.Rows {
		kb := enc.ProjectedKey(row.Tuple, gpos)
		g, ok := groups[string(kb)]
		if !ok {
			k := string(kb)
			g = &group{key: row.Tuple.Project(gpos), states: make([]algebra.Acc, len(a.Aggs))}
			groups[k] = g
			order = append(order, k)
		}
		for i, ag := range a.Aggs {
			if ag.Arg == nil { // COUNT(*)
				g.states[i].AddRows(row.Count)
				continue
			}
			g.states[i].Add(argFns[i].Eval(row.Tuple), row.Count)
		}
	}
	out := &Result{Schema: a.Schema()}
	for _, k := range order {
		g := groups[k]
		t := make(value.Tuple, 0, len(gpos)+len(a.Aggs))
		t = append(t, g.key...)
		for i, ag := range a.Aggs {
			t = append(t, g.states[i].Final(ag.Func))
		}
		out.Rows = append(out.Rows, storage.Row{Tuple: t, Count: 1})
	}
	return out, nil
}
