package server

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/value"
)

// randValue draws from a small mixed domain full of values that tie
// under value.Compare: two NaN payloads (NaN ties with every number),
// -0 and 0, and Int n against Float n.
func randValue(rng *rand.Rand) value.Value {
	switch rng.Intn(10) {
	case 0:
		return value.NewNull()
	case 1:
		return value.NewFloat(math.NaN())
	case 2:
		return value.NewFloat(math.Float64frombits(0x7ff8000000000001))
	case 3:
		return value.NewFloat(math.Copysign(0, -1))
	case 4:
		return value.NewFloat(float64(rng.Intn(8)))
	case 5:
		return value.NewString(fmt.Sprint("s", rng.Intn(8)))
	case 6:
		return value.NewBool(rng.Intn(2) == 0)
	default:
		return value.NewInt(int64(rng.Intn(8)))
	}
}

// randTuple draws from roughly 30 × 400 distinct tuples.
func randTuple(rng *rand.Rand) value.Tuple {
	return value.Tuple{randValue(rng), value.NewInt(int64(rng.Intn(400)))}
}

func hasNaN(t value.Tuple) bool {
	for _, v := range t {
		if v.Kind == value.Float && math.IsNaN(v.F) {
			return true
		}
	}
	return false
}

func TestCompareTuplesIsATotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sign := func(c int) int { return min(max(c, -1), 1) }
	for i := 0; i < 200000; i++ {
		a, b, c := randTuple(rng), randTuple(rng), randTuple(rng)
		if i%3 == 0 {
			b[1] = a[1] // first columns decide more often
		}
		ab, ba := compareTuples(a, b), compareTuples(b, a)
		if sign(ab) != -sign(ba) {
			t.Fatalf("not antisymmetric: %v vs %v: %d, %d", a, b, ab, ba)
		}
		if (ab == 0) != (a.Key() == b.Key()) {
			t.Fatalf("%v vs %v: compare %d, keys equal %v", a, b, ab, a.Key() == b.Key())
		}
		if ab <= 0 && compareTuples(b, c) <= 0 && compareTuples(a, c) > 0 {
			t.Fatalf("not transitive: %v <= %v <= %v but %v > %v", a, b, c, a, c)
		}
		if !hasNaN(a) && !hasNaN(b) && a.Compare(b) < 0 && ab >= 0 {
			t.Fatalf("does not refine Tuple.Compare: %v < %v", a, b)
		}
	}
}

// bag is the oracle: the hub's old shadow map, folded the old way and
// sorted on demand.
type bag map[string]Row

func (o bag) fold(changes []Change) {
	for _, c := range changes {
		if c.Old != nil {
			k := c.Old.Key()
			r := o[k]
			r.Count -= c.Count
			if r.Count <= 0 {
				delete(o, k)
			} else {
				o[k] = r
			}
		}
		if c.New != nil {
			k := c.New.Key()
			r, ok := o[k]
			if !ok {
				r = Row{Tuple: c.New}
			}
			r.Count += c.Count
			o[k] = r
		}
	}
}

func (o bag) sorted() []Row {
	rows := make([]Row, 0, len(o))
	for _, r := range o {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return compareTuples(rows[i].Tuple, rows[j].Tuple) < 0 })
	return rows
}

func (o bag) any() (Row, bool) {
	for _, r := range o { // map order is random enough
		return r, true
	}
	return Row{}, false
}

// randWindow draws k changes that steer the view towards target rows.
func randWindow(rng *rand.Rand, o bag, k, target int) []Change {
	shadow := bag{}
	for key, r := range o {
		shadow[key] = r
	}
	var out []Change
	for i := 0; i < k; i++ {
		r, ok := shadow.any()
		var c Change
		switch op := rng.Intn(10); {
		case !ok || op < 3 || (op < 6 && len(shadow) < target):
			c = Change{New: randTuple(rng), Count: 1 + rng.Int63n(3)}
		case op < 5:
			c = Change{New: r.Tuple, Count: 1}
		case op < 7:
			c = Change{Old: r.Tuple, Count: r.Count} // annihilate
		case op < 8:
			c = Change{Old: r.Tuple, Count: 1 + rng.Int63n(2)}
		case op < 9:
			c = Change{Old: randTuple(rng), Count: 1} // mostly absent: a no-op
		default:
			c = Change{Old: r.Tuple, New: randTuple(rng), Count: 1}
		}
		shadow.fold([]Change{c})
		out = append(out, c)
	}
	return out
}

// checkTree verifies the B+tree invariants: sorted entries, exact
// separators and counts, uniform leaf depth, and 16..32 entries in every
// node but the root.
func checkTree(t *testing.T, root *node, rows int) {
	t.Helper()
	leafDepth := -1
	var walk func(n *node, depth int, isRoot bool) int
	walk = func(n *node, depth int, isRoot bool) int {
		if len(n.ents) > maxEntries || (!isRoot && len(n.ents) < minEntries) || len(n.ents) == 0 {
			t.Fatalf("node at depth %d has %d entries", depth, len(n.ents))
		}
		for i := 1; i < len(n.ents); i++ {
			if compareTuples(n.ents[i-1].Tuple, n.ents[i].Tuple) >= 0 {
				t.Fatalf("entries out of order at depth %d", depth)
			}
		}
		if n.leaf {
			if leafDepth >= 0 && depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
			return len(n.ents)
		}
		size := 0
		for _, e := range n.ents {
			got := walk(e.kid, depth+1, false)
			if int64(got) != e.Count || compareTuples(e.Tuple, e.kid.ents[0].Tuple) != 0 {
				t.Fatalf("inner entry at depth %d: count %d for %d rows, separator %v for min %v",
					depth, e.Count, got, e.Tuple, e.kid.ents[0].Tuple)
			}
			size += got
		}
		return size
	}
	if root == nil {
		if rows != 0 {
			t.Fatalf("nil root for %d rows", rows)
		}
		return
	}
	if got := walk(root, 0, true); got != rows {
		t.Fatalf("tree holds %d rows, epoch says %d", got, rows)
	}
}

// sameRows compares tuples by compareTuples, whose equality is encoded
// key equality (TestCompareTuplesIsATotalOrder).
func sameRows(got, want []Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Count != want[i].Count || compareTuples(got[i].Tuple, want[i].Tuple) != 0 {
			return false
		}
	}
	return true
}

// pinned is a published epoch and the oracle's rows as of its Seq.
type pinned struct {
	ep   *Epoch
	want []Row
	keys map[string]int64
}

func pin(ep *Epoch, o bag) pinned {
	p := pinned{ep: ep, want: o.sorted(), keys: map[string]int64{}}
	for k, r := range o {
		p.keys[k] = r.Count
	}
	return p
}

// check compares the epoch with the oracle. With all set it covers
// every read shape: pages at the edge offsets and limits, and a lookup
// of every row; without, a full scan and a sample of lookups. Both
// look up random probes too.
func (p pinned) check(rng *rand.Rand, all bool) error {
	ep, want, n := p.ep, p.want, len(p.want)
	if ep.Len() != n {
		return fmt.Errorf("epoch %d: Len %d, want %d", ep.Seq, ep.Len(), n)
	}
	offsets, limits := []int{0}, []int{-1}
	if all {
		offsets, limits = []int{-3, 0, 1, n / 2, n - 1, n, n + 1}, []int{-1, 0, 1, 7, n + 1}
	}
	for _, off := range offsets {
		for _, lim := range limits {
			lo := min(max(off, 0), n)
			hi := n
			if lim >= 0 && lo+lim < n {
				hi = lo + lim
			}
			if got := ep.Page(off, lim); !sameRows(got, want[lo:hi]) {
				return fmt.Errorf("epoch %d: Page(%d, %d) = %d rows, want %d", ep.Seq, off, lim, len(got), hi-lo)
			}
		}
	}
	for i, r := range want {
		if !all && i%(n/32+1) != 0 {
			continue
		}
		got, ok := ep.Lookup(r.Tuple)
		if !ok || !sameRows([]Row{got}, []Row{r}) {
			return fmt.Errorf("epoch %d: Lookup(%v) = %v %v, want %v", ep.Seq, r.Tuple, got, ok, r)
		}
	}
	for i := 0; i < 50; i++ {
		probe := randTuple(rng)
		got, ok := ep.Lookup(probe)
		if count, in := p.keys[probe.Key()]; ok != in || got.Count != count {
			return fmt.Errorf("epoch %d: Lookup(%v) = %v %v, oracle %d %v", ep.Seq, probe, got, ok, count, in)
		}
	}
	for i := 1; i < n; i++ {
		a, b := want[i-1].Tuple, want[i].Tuple
		if !hasNaN(a) && !hasNaN(b) && a.Compare(b) > 0 {
			return fmt.Errorf("epoch %d: rows %v, %v break Tuple.Compare order", ep.Seq, a, b)
		}
	}
	return nil
}

// TestPtreeMatchesSortedBag is the differential property test: random
// fold sequences against the old shadow-map-and-sort representation.
// Every published epoch must equal the oracle as of its Seq — and still
// equal it after every later fold, while concurrent readers scan it, so
// no published node is ever written.
func TestPtreeMatchesSortedBag(t *testing.T) {
	for _, size := range []int{0, 1, 31, 33, 700, 5000} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(size) + 7))
			o := bag{}
			for len(o) < size {
				o.fold([]Change{{New: randTuple(rng), Count: 1 + rng.Int63n(3)}})
			}
			seed := o.sorted()
			rows := make([]Row, len(seed))
			for i, j := range rng.Perm(len(seed)) {
				rows[i] = seed[j]
			}
			vs := &viewState{}
			vs.cur.Store(seedEpoch(0, rows))
			checkTree(t, vs.cur.Load().root, size)

			var (
				mu       sync.Mutex
				retained = []pinned{pin(vs.cur.Load(), o)}
				done     atomic.Bool
				wg       sync.WaitGroup
			)
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rrng := rand.New(rand.NewSource(int64(r)))
					for !done.Load() {
						mu.Lock()
						p := retained[rrng.Intn(len(retained))]
						mu.Unlock()
						if err := p.check(rrng, false); err != nil {
							t.Error(err)
							return
						}
					}
				}(r)
			}

			windows := 120
			if size >= 5000 {
				windows = 60
			}
			for seq := uint64(1); seq <= uint64(windows); seq++ {
				k := []int{1, 1, 1, 2, 3, 5, 40}[rng.Intn(7)]
				if seq%25 == 0 {
					k = size/2 + 300
				}
				changes := randWindow(rng, o, k, size)
				if seq == uint64(windows)/2 {
					// Annihilate every row, then refill from empty.
					changes = changes[:0]
					for _, r := range o.sorted() {
						changes = append(changes, Change{Old: r.Tuple, Count: r.Count})
					}
				}
				o.fold(changes)
				ep := vs.fold(changes, seq, 0)
				vs.cur.Store(ep)
				checkTree(t, ep.root, len(o))
				p := pin(ep, o)
				if err := p.check(rng, true); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				retained = append(retained, p)
				if len(retained) > 64 {
					retained = append(retained[:1], retained[len(retained)-63:]...) // keep epoch 0
				}
				all := append([]pinned(nil), retained...)
				mu.Unlock()
				if last := seq == uint64(windows); last || seq%16 == 0 {
					for _, p := range all {
						if err := p.check(rng, last); err != nil {
							t.Fatalf("after fold %d: %v", seq, err)
						}
					}
				}
			}
			done.Store(true)
			wg.Wait()
		})
	}
}
