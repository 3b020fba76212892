package delta

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/storage"
	"repro/internal/value"
)

// OldAgg reports the pre-update state of one group of a materialized
// aggregate view: the stored output tuple, the group's live bag count in
// the child, and whether the group existed.
type OldAgg func(groupKey value.Tuple) (out value.Tuple, live int64, ok bool, err error)

// Decomposable reports whether the aggregate view can be maintained
// purely from its own stored values plus the child delta, with no query
// on the child: true when every aggregate is SUM or COUNT, or when the
// delta is insert-only and every aggregate is SUM/COUNT/MIN/MAX.
// (AVG and deletion-exposed MIN/MAX need the full group.)
func Decomposable(specs []algebra.AggSpec, d *Delta) bool {
	insertOnly := true
	for _, c := range d.Changes {
		if !c.IsInsert() {
			insertOnly = false
			break
		}
	}
	for _, s := range specs {
		switch s.Func {
		case algebra.Sum, algebra.Count:
		case algebra.Min, algebra.Max:
			if !insertOnly {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// acc accumulates one group's signed contributions within a window.
// Entries live in the plan's reusable scratch slice; their inner slices
// are retained (truncated, not freed) across windows.
type acc struct {
	key    value.Tuple
	sums   []value.Value // signed sum contribution per agg (SUM)
	counts []int64       // signed count contribution per agg (COUNT)
	mins   []value.Value // inserts-only MIN/MAX candidates
	maxs   []value.Value
	live   int64 // signed bag-count change
}

// getAcc returns the accumulator for t's group, creating (or reusing a
// retained) one on first touch. Group keys are bump-allocated from the
// plan's arena; append order of p.accs is first-seen group order.
func (p *AggregatePlan) getAcc(t value.Tuple) *acc {
	kb := p.enc.ProjectedKey(t, p.gpos)
	idx, _, existed := p.groups.GetOrPut(kb, int32(len(p.accs)))
	if existed {
		return &p.accs[*idx]
	}
	if len(p.accs) < cap(p.accs) {
		p.accs = p.accs[:len(p.accs)+1]
	} else {
		p.accs = append(p.accs, acc{})
	}
	g := &p.accs[len(p.accs)-1]
	k := p.arena.NewTuple(len(p.gpos))
	for i, j := range p.gpos {
		k[i] = t[j]
	}
	g.key = k
	g.live = 0
	n := len(p.a.Aggs)
	if cap(g.sums) < n {
		g.sums = make([]value.Value, n)
		g.counts = make([]int64, n)
		g.mins = make([]value.Value, n)
		g.maxs = make([]value.Value, n)
	} else {
		g.sums = g.sums[:n]
		g.counts = g.counts[:n]
		g.mins = g.mins[:n]
		g.maxs = g.maxs[:n]
	}
	for i := 0; i < n; i++ {
		g.sums[i] = value.NewInt(0)
		g.counts[i] = 0
		g.mins[i] = value.NewNull()
		g.maxs[i] = value.NewNull()
	}
	return g
}

// Incremental maintains the aggregate from the materialized old values
// alone (the paper's SumOfSals trick: "adding to or subtracting from
// the previous aggregate values"), using the plan's group-by positions
// and compiled arguments; the per-group accumulators live in plan
// scratch reused across windows. It requires Decomposable for this
// delta. It returns the output delta, valid until the next Incremental
// or Full on this plan (or arena reset), and the new live counts per
// group key (value.Tuple.Key() form), freshly allocated: the caller
// persists them in the view's sidecar to detect group emptiness.
func (p *AggregatePlan) Incremental(d *Delta, oldAgg OldAgg) (*Delta, map[string]int64, error) {
	a, gpos, argFns := p.a, p.gpos, p.argFns
	if !Decomposable(a.Aggs, d) {
		return nil, nil, fmt.Errorf("delta: aggregate %s is not decomposable for this delta", a.OpLabel())
	}
	p.groups.Reset()
	p.accs = p.accs[:0]
	contribute := func(t value.Tuple, n int64) {
		g := p.getAcc(t)
		g.live += n
		for i, ag := range a.Aggs {
			switch ag.Func {
			case algebra.Count:
				if ag.Arg == nil {
					g.counts[i] += n
				} else if !argFns[i].Eval(t).IsNull() {
					g.counts[i] += n
				}
			case algebra.Sum:
				v := argFns[i].Eval(t)
				if v.IsNull() {
					continue
				}
				for j := int64(0); j < abs64(n); j++ {
					if n > 0 {
						g.sums[i] = value.Add(g.sums[i], v)
					} else {
						g.sums[i] = value.Sub(g.sums[i], v)
					}
				}
			case algebra.Min:
				v := argFns[i].Eval(t)
				if v.IsNull() {
					continue
				}
				if g.mins[i].IsNull() || value.Compare(v, g.mins[i]) < 0 {
					g.mins[i] = v
				}
			case algebra.Max:
				v := argFns[i].Eval(t)
				if v.IsNull() {
					continue
				}
				if g.maxs[i].IsNull() || value.Compare(v, g.maxs[i]) > 0 {
					g.maxs[i] = v
				}
			}
		}
	}
	p.sbuf = d.appendSigned(p.sbuf[:0])
	for _, sr := range p.sbuf {
		contribute(sr.tuple, sr.count)
	}
	out := resetOut(&p.outD, p.out)
	newLive := map[string]int64{}
	nAggStart := len(gpos)
	for gi := range p.accs {
		g := &p.accs[gi]
		oldTuple, oldLive, existed, err := oldAgg(g.key)
		if err != nil {
			return nil, nil, err
		}
		if !existed {
			oldLive = 0
		}
		live := oldLive + g.live
		if live < 0 {
			return nil, nil, fmt.Errorf("delta: group %v driven to negative live count %d", g.key, live)
		}
		newLive[string(p.enc.Key(g.key))] = live
		// Build the new output tuple from old + contributions.
		newTuple := p.arena.NewTuple(nAggStart + len(a.Aggs))
		copy(newTuple, g.key)
		for i, ag := range a.Aggs {
			var oldV value.Value
			if existed {
				oldV = oldTuple[nAggStart+i]
			}
			switch ag.Func {
			case algebra.Count:
				base := int64(0)
				if existed {
					base = oldV.AsInt()
				}
				newTuple[nAggStart+i] = value.NewInt(base + g.counts[i])
			case algebra.Sum:
				if existed && !oldV.IsNull() {
					newTuple[nAggStart+i] = value.Add(oldV, g.sums[i])
				} else {
					newTuple[nAggStart+i] = g.sums[i]
				}
			case algebra.Min:
				if existed && !oldV.IsNull() && (g.mins[i].IsNull() || value.Compare(oldV, g.mins[i]) < 0) {
					newTuple[nAggStart+i] = oldV
				} else {
					newTuple[nAggStart+i] = g.mins[i]
				}
			case algebra.Max:
				if existed && !oldV.IsNull() && (g.maxs[i].IsNull() || value.Compare(oldV, g.maxs[i]) > 0) {
					newTuple[nAggStart+i] = oldV
				} else {
					newTuple[nAggStart+i] = g.maxs[i]
				}
			}
		}
		switch {
		case !existed && live > 0:
			out.Insert(newTuple, 1)
		case existed && live == 0:
			out.Delete(oldTuple, 1)
		case existed && live > 0:
			out.Modify(oldTuple, newTuple, 1)
		}
	}
	return out, newLive, nil
}

// Full recomputes each affected group from its pre-update rows
// (supplied by oldGroup — a query on the child, or GroupRowsFromDelta
// when the delta covers whole groups) plus the delta, folding both
// states with algebra.Acc over the plan's compiled arguments. The
// result is valid until the next Incremental or Full on this plan (or
// arena reset).
func (p *AggregatePlan) Full(d *Delta, oldGroup func(value.Tuple) ([]storage.Row, error)) (*Delta, error) {
	keys, err := d.AffectedKeys(p.a.GroupBy)
	if err != nil {
		return nil, err
	}
	out := resetOut(&p.outD, p.out)
	for _, gk := range keys {
		oldRows, err := oldGroup(gk)
		if err != nil {
			return nil, err
		}
		// Restrict the delta to this group.
		sub := New(d.Schema)
		for _, c := range d.Changes {
			oldIn := c.Old != nil && c.Old.Project(p.gpos).Equal(gk)
			newIn := c.New != nil && c.New.Project(p.gpos).Equal(gk)
			switch {
			case oldIn && newIn:
				sub.Changes = append(sub.Changes, c)
			case oldIn:
				sub.Delete(c.Old, c.Count)
			case newIn:
				sub.Insert(c.New, c.Count)
			}
		}
		oldTuple, oldOK := p.fold(gk, oldRows)
		newTuple, newOK := p.fold(gk, ApplyTo(oldRows, sub))
		switch {
		case oldOK && newOK:
			out.Modify(oldTuple, newTuple, 1)
		case oldOK:
			out.Delete(oldTuple, 1)
		case newOK:
			out.Insert(newTuple, 1)
		}
	}
	return out, nil
}

// fold computes the output tuple for one group over the given child
// rows; ok is false when the group is empty.
func (p *AggregatePlan) fold(gk value.Tuple, rows []storage.Row) (value.Tuple, bool) {
	var total int64
	for _, r := range rows {
		total += r.Count
	}
	if total <= 0 {
		return nil, false
	}
	out := p.arena.NewTuple(len(gk) + len(p.a.Aggs))
	copy(out, gk)
	for i, ag := range p.a.Aggs {
		var acc algebra.Acc
		if ag.Arg == nil { // COUNT(*)
			acc.AddRows(total)
		} else {
			for _, r := range rows {
				acc.Add(p.argFns[i].Eval(r.Tuple), r.Count)
			}
		}
		out[len(gk)+i] = acc.Final(ag.Func)
	}
	return out, true
}

func abs64(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}
