package maintain

import (
	"sort"
	"strconv"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// trackPlan is a compiled update track for one (view set, transaction
// type) pair: the cost-chosen track plus, per affected node, the
// precompiled delta-propagation step (resolved column positions,
// compiled predicates and residuals, plan-owned probe-cache and key
// encoder buffers). The hot path replays steps with no schema
// resolution, no expression compilation and no per-window map churn.
//
// Plans live in Maintainer.plans keyed by the transaction type's
// canonical name (txn.MergedType gives batches a canonical name too, so
// a recurring window shape compiles once). Each plan records the view-set
// key it was compiled under; planFor recompiles when the view set has
// changed since. Plan-owned scratch buffers make a plan single-threaded,
// matching the propagation pass that uses it.
type trackPlan struct {
	track *tracks.Track
	// queries is the costed track's query list (tracks.TrackCost.Queries):
	// every point query the cost model expects this track to pose.
	queries []tracks.QueryCharge
	// shared counts the queries MQO merges away — posed by more than one
	// consumer along the track, answered once per window by the memo.
	shared int
	vsKey  string
	steps  map[int]*planStep
}

// planStep is the compiled propagation step of one equivalence node;
// exactly one field is set, matching the chosen operation's kind.
// Operators with no compile-time state (Distinct, Union, Diff) leave all
// fields nil and propagate through delta's plain functions.
type planStep struct {
	sel  *delta.SelectPlan
	proj *delta.ProjectPlan
	join *delta.JoinPlan
	agg  *delta.AggregatePlan
}

// setArena threads the maintainer's per-window arena into the plans
// that derive tuples (projection outputs, join concatenations,
// aggregate keys and output rows).
func (st *planStep) setArena(a *value.Arena) {
	if st.proj != nil {
		st.proj.SetArena(a)
	}
	if st.join != nil {
		st.join.SetArena(a)
	}
	if st.agg != nil {
		st.agg.SetArena(a)
	}
}

// viewSetKey canonicalizes the view set for plan invalidation, into
// scratch recycled across windows (valid until the next call).
func (m *Maintainer) viewSetKey() []byte {
	ids := m.vsIDs[:0]
	for id, ok := range m.VS {
		if ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	b := m.vsKey[:0]
	for _, id := range ids {
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ',')
	}
	m.vsIDs, m.vsKey = ids, b
	return b
}

// planFor returns the compiled plan for t, compiling (or recompiling,
// when the view set changed) on first use.
func (m *Maintainer) planFor(t *txn.Type) (*trackPlan, error) {
	vsk := m.viewSetKey()
	if p := m.plans[t.Name]; p != nil && p.vsKey == string(vsk) {
		return p, nil
	}
	best, _ := m.Cost.CostViewSet(m.VS, t)
	tr := best.Track
	if tr == nil {
		tr = &tracks.Track{Choice: map[int]*dag.OpNode{}}
	}
	p := &trackPlan{
		track:   tr,
		queries: best.Queries,
		shared:  best.SharedQueries(),
		vsKey:   string(vsk),
		steps:   make(map[int]*planStep, len(tr.Order)),
	}
	for _, e := range tr.Order {
		st, err := compileStep(tr.Choice[e.ID])
		if err != nil {
			return nil, err
		}
		st.setArena(&m.arena)
		p.steps[e.ID] = st
	}
	m.plans[t.Name] = p
	return p, nil
}

// compileStep precompiles the delta propagation of one operation node
// against its children's schemas. Deltas flowing along a track carry
// their equivalence node's schema (the DAG's strict-equivalence
// invariant), so compile-time resolution against op.Children[i].Schema()
// matches what per-call compilation against d.Schema would produce.
func compileStep(op *dag.OpNode) (*planStep, error) {
	st := &planStep{}
	switch t := op.Template.(type) {
	case *algebra.Select:
		p, err := delta.CompileSelect(t, op.Children[0].Schema())
		if err != nil {
			return nil, err
		}
		st.sel = p
	case *algebra.Project:
		p, err := delta.CompileProject(t, op.Children[0].Schema())
		if err != nil {
			return nil, err
		}
		st.proj = p
	case *algebra.Join:
		p, err := delta.CompileJoin(t, op.Children[0].Schema(), op.Children[1].Schema())
		if err != nil {
			return nil, err
		}
		st.join = p
	case *algebra.Aggregate:
		p, err := delta.CompileAggregate(t, op.Children[0].Schema())
		if err != nil {
			return nil, err
		}
		st.agg = p
	}
	return st, nil
}
