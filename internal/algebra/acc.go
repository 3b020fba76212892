package algebra

import "repro/internal/value"

// Acc folds one aggregate over a bag: the single SUM/COUNT/AVG/MIN/MAX
// semantics behind query evaluation (exec), full-group maintenance
// (delta.AggregatePlan.Full) and the cross-shard merge of per-shard
// partials. The NULL rules are SQL's: NULL arguments are skipped;
// COUNT counts the non-NULL arguments (COUNT(*) counts rows); SUM, AVG,
// MIN and MAX of no non-NULL value are NULL.
//
// The signed incremental path (delta.AggregatePlan.Incremental, the
// paper's add-to/subtract-from trick) does not fold through Acc: it
// keeps no per-group non-NULL count, so a SUM group whose members are
// all NULL reads 0 there where this fold says NULL.
//
// The zero Acc is an empty fold.
type Acc struct {
	sum, min, max value.Value
	count         int64
	started       bool // sum, min and max hold at least one value
}

// Add folds argument v with multiplicity n (n > 0); NULL is skipped.
func (a *Acc) Add(v value.Value, n int64) {
	if v.IsNull() {
		return
	}
	if !a.started {
		a.sum, a.min, a.max, a.started = value.NewInt(0), v, v, true
	}
	for i := int64(0); i < n; i++ {
		a.sum = value.Add(a.sum, v)
	}
	a.count += n
	if value.Compare(v, a.min) < 0 {
		a.min = v
	}
	if value.Compare(v, a.max) > 0 {
		a.max = v
	}
}

// AddRows folds n rows into COUNT(*).
func (a *Acc) AddRows(n int64) { a.count += n }

// Merge folds b's bag into a's: the fold of a bag split in two parts
// equals the merge of the parts' folds.
func (a *Acc) Merge(b Acc) {
	a.count += b.count
	if !b.started {
		return
	}
	if !a.started {
		a.sum, a.min, a.max, a.started = b.sum, b.min, b.max, true
		return
	}
	a.sum = value.Add(a.sum, b.sum)
	if value.Compare(b.min, a.min) < 0 {
		a.min = b.min
	}
	if value.Compare(b.max, a.max) > 0 {
		a.max = b.max
	}
}

// Final returns f's value over the folded bag.
func (a *Acc) Final(f AggFunc) value.Value {
	switch f {
	case Count:
		return value.NewInt(a.count)
	case Avg:
		if a.count == 0 {
			return value.NewNull()
		}
		return value.NewFloat(a.sum.AsFloat() / float64(a.count))
	case Sum, Min, Max:
		if !a.started {
			return value.NewNull()
		}
		switch f {
		case Sum:
			return a.sum
		case Min:
			return a.min
		}
		return a.max
	default:
		return value.NewNull()
	}
}

// Partial returns an accumulator whose Final(f) is v, for a mergeable
// f (SUM, COUNT, MIN, MAX): a stored per-shard partial turned back into
// state that Merge can fold. AVG is not mergeable from its final value.
func Partial(f AggFunc, v value.Value) Acc {
	if f == Count {
		return Acc{count: v.AsInt()}
	}
	if v.IsNull() {
		return Acc{}
	}
	return Acc{sum: v, min: v, max: v, started: true}
}
