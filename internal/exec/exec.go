// Package exec evaluates logical algebra trees against a storage.Store.
//
// Two entry points matter:
//
//   - Eval computes the full result of an expression (used to materialize
//     views initially and as a correctness oracle in tests).
//   - EvalFiltered computes σ[cols = key](expr), pushing the equality
//     filter as deep as possible so that base relations and materialized
//     views are accessed through their hash indexes. This is exactly how
//     the paper answers the queries posed on equivalence nodes during
//     delta propagation (Q2Ld, Q3e, ... of Example 3.2).
//
// The evaluator charges I/O through the store's counter according to the
// storage package's conventions; Free mode suppresses charging (initial
// materialization, oracles).
package exec

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// Result is an in-memory relation: a schema and counted rows.
type Result struct {
	Schema *catalog.Schema
	Rows   []storage.Row
}

// Card returns the number of distinct tuples in the result.
func (r *Result) Card() int { return len(r.Rows) }

// Total returns the bag cardinality (sum of counts).
func (r *Result) Total() int64 {
	var n int64
	for _, row := range r.Rows {
		n += row.Count
	}
	return n
}

// Sorted returns the rows sorted lexicographically (stable comparisons
// for tests and golden output).
func (r *Result) Sorted() []storage.Row {
	out := make([]storage.Row, len(r.Rows))
	copy(out, r.Rows)
	sort.Slice(out, func(i, j int) bool {
		return out[i].Tuple.Compare(out[j].Tuple) < 0
	})
	return out
}

// Evaluator executes algebra trees against a store.
type Evaluator struct {
	Store *storage.Store
	// Free suppresses I/O charging (scans and lookups become free).
	Free bool
	// Memo, when non-nil, shares full-evaluation results across repeated
	// subtrees within one maintenance window (see Memo).
	Memo Memo
	// Win, when non-nil, is the maintenance window's arena: join output
	// tuples are bump-allocated from it instead of the heap, which makes
	// every Result subject to the window ownership rule — rows are valid
	// only until the arena's next Reset. Leave nil for oracle /
	// materialization evaluators whose results must outlive a window.
	Win *value.Arena
}

// New returns a charging evaluator over the store.
func New(st *storage.Store) *Evaluator { return &Evaluator{Store: st} }

// NewFree returns a non-charging evaluator (oracle / initial load).
func NewFree(st *storage.Store) *Evaluator { return &Evaluator{Store: st, Free: true} }

// Eval computes the full result of n. When a window memo is installed,
// repeated subtrees are evaluated once and served from the memo after
// that (results are shared — treat them as read-only).
func (ev *Evaluator) Eval(n algebra.Node) (*Result, error) {
	if res, ok := ev.evalMemo(n); ok {
		return res, nil
	}
	res, err := ev.evalNode(n)
	if err == nil && ev.Memo != nil {
		ev.Memo[n] = res
	}
	return res, err
}

func (ev *Evaluator) evalNode(n algebra.Node) (*Result, error) {
	switch t := n.(type) {
	case *algebra.Rel:
		rel, ok := ev.Store.Get(t.Def.Name)
		if !ok {
			return nil, fmt.Errorf("exec: relation %q not stored", t.Def.Name)
		}
		var rows []storage.Row
		if ev.Free {
			rows = rel.ScanFree()
		} else {
			rows = rel.Scan()
		}
		return &Result{Schema: t.Schema(), Rows: rows}, nil
	case *algebra.Select:
		in, err := ev.Eval(t.Input)
		if err != nil {
			return nil, err
		}
		return filterResult(in, t.Pred)
	case *algebra.Project:
		in, err := ev.Eval(t.Input)
		if err != nil {
			return nil, err
		}
		return projectResult(in, t)
	case *algebra.Join:
		l, err := ev.Eval(t.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.Eval(t.R)
		if err != nil {
			return nil, err
		}
		return ev.hashJoin(t, l, r)
	case *algebra.Aggregate:
		in, err := ev.Eval(t.Input)
		if err != nil {
			return nil, err
		}
		return aggregateResult(in, t)
	case *algebra.Distinct:
		in, err := ev.Eval(t.Input)
		if err != nil {
			return nil, err
		}
		return distinctResult(in), nil
	case *algebra.Union:
		l, err := ev.Eval(t.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.Eval(t.R)
		if err != nil {
			return nil, err
		}
		return unionResult(t.Schema(), l, r, +1), nil
	case *algebra.Diff:
		l, err := ev.Eval(t.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.Eval(t.R)
		if err != nil {
			return nil, err
		}
		return unionResult(t.Schema(), l, r, -1), nil
	default:
		return nil, fmt.Errorf("exec: unsupported node %T", n)
	}
}

func filterResult(in *Result, pred expr.Expr) (*Result, error) {
	f, err := expr.CompileProg(pred, in.Schema)
	if err != nil {
		return nil, err
	}
	out := &Result{Schema: in.Schema}
	for _, row := range in.Rows {
		if f.Truth(row.Tuple) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

func projectResult(in *Result, p *algebra.Project) (*Result, error) {
	fs := make([]*expr.Prog, len(p.Items))
	for i, it := range p.Items {
		f, err := expr.CompileProg(it.E, in.Schema)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	// Bag projection merges rows that collapse onto the same tuple.
	// Sized for the no-collapse case, the common one along update tracks.
	merged := make(map[string]*storage.Row, len(in.Rows))
	order := make([]string, 0, len(in.Rows))
	var enc value.KeyEncoder
	for _, row := range in.Rows {
		t := make(value.Tuple, len(fs))
		for i, f := range fs {
			t[i] = f.Eval(row.Tuple)
		}
		kb := enc.Key(t)
		if e, ok := merged[string(kb)]; ok {
			e.Count += row.Count
		} else {
			k := string(kb)
			merged[k] = &storage.Row{Tuple: t, Count: row.Count}
			order = append(order, k)
		}
	}
	out := &Result{Schema: p.Schema()}
	for _, k := range order {
		out.Rows = append(out.Rows, *merged[k])
	}
	return out, nil
}

func (ev *Evaluator) hashJoin(j *algebra.Join, l, r *Result) (*Result, error) {
	lpos := make([]int, len(j.On))
	rpos := make([]int, len(j.On))
	for i, c := range j.On {
		li, err := l.Schema.Resolve(c.Left)
		if err != nil {
			return nil, err
		}
		ri, err := r.Schema.Resolve(c.Right)
		if err != nil {
			return nil, err
		}
		lpos[i], rpos[i] = li, ri
	}
	build := make(map[string][]storage.Row, len(r.Rows))
	var enc value.KeyEncoder
	for _, row := range r.Rows {
		kb := enc.ProjectedKey(row.Tuple, rpos)
		build[string(kb)] = append(build[string(kb)], row)
	}
	outSchema := j.Schema()
	var residual *expr.Prog
	if j.Residual != nil {
		f, err := expr.CompileProg(j.Residual, outSchema)
		if err != nil {
			return nil, err
		}
		residual = f
	}
	out := &Result{Schema: outSchema, Rows: make([]storage.Row, 0, len(l.Rows))}
	for _, lrow := range l.Rows {
		kb := enc.ProjectedKey(lrow.Tuple, lpos)
		for _, rrow := range build[string(kb)] {
			t := ev.Win.ConcatTuples(lrow.Tuple, rrow.Tuple)
			if residual != nil && !residual.Truth(t) {
				continue
			}
			out.Rows = append(out.Rows, storage.Row{Tuple: t, Count: lrow.Count * rrow.Count})
		}
	}
	return out, nil
}

func distinctResult(in *Result) *Result {
	out := &Result{Schema: in.Schema}
	seen := make(map[string]bool, len(in.Rows))
	var enc value.KeyEncoder
	for _, row := range in.Rows {
		kb := enc.Key(row.Tuple)
		if !seen[string(kb)] && row.Count > 0 {
			seen[string(kb)] = true
			out.Rows = append(out.Rows, storage.Row{Tuple: row.Tuple, Count: 1})
		}
	}
	return out
}

func unionResult(schema *catalog.Schema, l, r *Result, sign int64) *Result {
	merged := make(map[string]*storage.Row, len(l.Rows)+len(r.Rows))
	order := make([]string, 0, len(l.Rows)+len(r.Rows))
	var enc value.KeyEncoder
	add := func(row storage.Row, mult int64) {
		kb := enc.Key(row.Tuple)
		if e, ok := merged[string(kb)]; ok {
			e.Count += row.Count * mult
		} else {
			k := string(kb)
			merged[k] = &storage.Row{Tuple: row.Tuple, Count: row.Count * mult}
			order = append(order, k)
		}
	}
	for _, row := range l.Rows {
		add(row, 1)
	}
	for _, row := range r.Rows {
		add(row, sign)
	}
	out := &Result{Schema: schema}
	for _, k := range order {
		e := merged[k]
		if e.Count > 0 {
			out.Rows = append(out.Rows, *e)
		}
	}
	return out
}
