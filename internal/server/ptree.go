package server

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/value"
)

// A served view lives in a persistent, path-copying, counted B+tree.
// Leaves hold the view's rows in tree order; inner nodes hold one entry
// per child: the child's smallest tuple (the routing separator) and the
// number of rows under it, so a page finds its first row by rank.
//
// Published nodes are never mutated. A fold copies each node it changes
// and stamps the copy with its generation; later changes in the same
// fold edit those copies in place, so a window costs O(|ΔV| log |V|)
// time and space, and the retained epochs share every node no window
// since has touched.

const (
	maxEntries = 32             // a node holding more splits
	minEntries = maxEntries / 2 // a non-root node holding fewer merges or borrows
)

// entry is one node slot. In a leaf it is a view row. In an inner node
// Tuple is the smallest tuple under kid and Count the rows under kid.
type entry struct {
	Row
	kid *node
}

type node struct {
	gen  uint64 // the fold that created the node; only it may edit the node
	leaf bool
	ents []entry
}

// compareTuples is the tree order: Tuple.Compare made total. Numbers
// compare like cmp.Compare, so NaN sorts below every other number
// instead of tying with all of them (which orders nothing), and tuples
// that still tie (-0 and 0, 1 and 1.0, NaN payloads) are ordered by
// their encoded keys. Two tuples are equal exactly when their encoded
// keys are, and on NaN-free tuples the order refines Tuple.Compare.
func compareTuples(a, b value.Tuple) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := compareValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	var ka, kb [128]byte
	return bytes.Compare(value.AppendKey(ka[:0], a), value.AppendKey(kb[:0], b))
}

func compareValues(a, b value.Value) int {
	if isNumber(a) && isNumber(b) {
		return cmp.Compare(a.AsFloat(), b.AsFloat())
	}
	return value.Compare(a, b)
}

func isNumber(v value.Value) bool { return v.Kind == value.Int || v.Kind == value.Float }

// search finds t among the node's entry tuples.
func (n *node) search(t value.Tuple) (int, bool) {
	return slices.BinarySearchFunc(n.ents, t, func(e entry, t value.Tuple) int {
		return compareTuples(e.Tuple, t)
	})
}

// ref is the parent entry for n.
func (n *node) ref() entry {
	size := int64(len(n.ents))
	if !n.leaf {
		size = 0
		for _, e := range n.ents {
			size += e.Count
		}
	}
	return entry{Row: Row{Tuple: n.ents[0].Tuple, Count: size}, kid: n}
}

// mut returns n if the fold gen owns it, else an owned copy with room
// for one more entry.
func (n *node) mut(gen uint64) *node {
	if n.gen == gen {
		return n
	}
	m := &node{gen: gen, leaf: n.leaf, ents: make([]entry, len(n.ents), maxEntries+1)}
	copy(m.ents, n.ents)
	return m
}

// bulkLoad builds a tree from rows already sorted by compareTuples and
// free of duplicates. Every level is spread evenly over the fewest nodes
// that hold it, so every non-root node starts at least half full.
func bulkLoad(rows []Row) *node {
	if len(rows) == 0 {
		return nil
	}
	level := spread(len(rows), func(lo, hi int) *node {
		n := &node{leaf: true, ents: make([]entry, hi-lo)}
		for i, r := range rows[lo:hi] {
			n.ents[i].Row = r
		}
		return n
	})
	for len(level) > 1 {
		kids := level
		level = spread(len(kids), func(lo, hi int) *node {
			n := &node{ents: make([]entry, hi-lo)}
			for i, k := range kids[lo:hi] {
				n.ents[i] = k.ref()
			}
			return n
		})
	}
	return level[0]
}

func spread(n int, mk func(lo, hi int) *node) []*node {
	k := (n + maxEntries - 1) / maxEntries
	out := make([]*node, k)
	for j := range out {
		out[j] = mk(j*n/k, (j+1)*n/k)
	}
	return out
}

// addRow adds d to the count of tuple t in the tree under root: it
// inserts t when absent and d > 0, and removes t once its count drops
// to zero or below. It returns the new root and the change in the
// number of rows. Nodes not owned by gen are copied, never edited.
func addRow(root *node, t value.Tuple, d int64, gen uint64) (*node, int) {
	if root == nil {
		if d <= 0 {
			return nil, 0
		}
		root = &node{gen: gen, leaf: true}
	}
	n, dn, changed := root.add(t, d, gen)
	if !changed {
		return root, 0
	}
	if len(n.ents) > maxEntries {
		p := &node{gen: gen, ents: make([]entry, 1, maxEntries+1)}
		p.ents[0] = n.ref()
		p.splitKid(0, gen)
		n = p
	}
	for !n.leaf && len(n.ents) == 1 {
		n = n.ents[0].kid
	}
	if len(n.ents) == 0 {
		n = nil
	}
	return n, dn
}

func (n *node) add(t value.Tuple, d int64, gen uint64) (*node, int, bool) {
	i, found := n.search(t)
	if n.leaf {
		if !found && d <= 0 {
			return n, 0, false
		}
		m := n.mut(gen)
		switch {
		case !found:
			m.ents = slices.Insert(m.ents, i, entry{Row: Row{Tuple: t, Count: d}})
			return m, 1, true
		case m.ents[i].Count+d > 0:
			m.ents[i].Count += d
			return m, 0, true
		}
		m.ents = slices.Delete(m.ents, i, i+1)
		return m, -1, true
	}
	if !found && i > 0 {
		i-- // the last child whose smallest tuple is below t
	}
	kid, dn, changed := n.ents[i].kid.add(t, d, gen)
	if !changed {
		return n, 0, false
	}
	m := n.mut(gen)
	m.ents[i].kid = kid
	m.ents[i].Count += int64(dn)
	if len(kid.ents) > 0 {
		m.ents[i].Tuple = kid.ents[0].Tuple
	}
	switch {
	case len(kid.ents) > maxEntries:
		m.splitKid(i, gen)
	case len(kid.ents) < minEntries:
		m.rebalance(i, gen)
	}
	return m, dn, true
}

// splitKid splits the owned child i of the owned node m in half.
func (m *node) splitKid(i int, gen uint64) {
	l := m.ents[i].kid
	h := len(l.ents) / 2
	r := &node{gen: gen, leaf: l.leaf, ents: make([]entry, len(l.ents)-h, maxEntries+1)}
	copy(r.ents, l.ents[h:])
	clear(l.ents[h:])
	l.ents = l.ents[:h]
	m.ents[i] = l.ref()
	m.ents = slices.Insert(m.ents, i+1, r.ref())
}

// rebalance tops up the underfull child i of the owned node m from a
// neighbour: the pair merges when it fits one node, else the two even
// out. A lone child is left to m's own parent (or the root collapse).
func (m *node) rebalance(i int, gen uint64) {
	if len(m.ents) < 2 {
		return
	}
	if i == len(m.ents)-1 {
		i--
	}
	l, r := m.ents[i].kid.mut(gen), m.ents[i+1].kid
	if len(l.ents)+len(r.ents) <= maxEntries {
		l.ents = append(l.ents, r.ents...)
		m.ents[i] = l.ref()
		m.ents = slices.Delete(m.ents, i+1, i+2)
		return
	}
	r = r.mut(gen)
	if k := (len(r.ents) - len(l.ents)) / 2; k > 0 {
		l.ents = append(l.ents, r.ents[:k]...)
		r.ents = slices.Delete(r.ents, 0, k)
	} else if k < 0 {
		cut := len(l.ents) + k
		r.ents = slices.Insert(r.ents, 0, l.ents[cut:]...)
		clear(l.ents[cut:])
		l.ents = l.ents[:cut]
	}
	m.ents[i], m.ents[i+1] = l.ref(), r.ref()
}

// appendRange appends the rows of the subtree n from rank skip on, until
// dst is full.
func appendRange(dst []Row, n *node, skip int) []Row {
	if n.leaf {
		for _, e := range n.ents[skip:] {
			if len(dst) == cap(dst) {
				break
			}
			dst = append(dst, e.Row)
		}
		return dst
	}
	for _, e := range n.ents {
		if len(dst) == cap(dst) {
			break
		}
		if skip >= int(e.Count) {
			skip -= int(e.Count)
			continue
		}
		dst = appendRange(dst, e.kid, skip)
		skip = 0
	}
	return dst
}
