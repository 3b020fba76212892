// Package server is the network surface of the maintenance engine: an
// HTTP/JSON server (stdlib only) that serves point and scan queries
// against epoch-pinned MVCC view snapshots, accepts transaction batches,
// and streams per-view changefeeds over SSE with resume-from-sequence
// backed by the changefeed log (wal.FeedLog).
//
// The design premise is that the maintainer's storage has NO read locks:
// slab recycling (DESIGN.md §14) frees readers were never promised.
// Readers therefore never touch maintainer storage. Instead the window
// hook (maintain.SetWindowHook) hands every applied window's per-view
// deltas to a Hub, which deep-clones them synchronously — inside the
// hook, before the next window's arena reset — and folds them, on its
// own goroutine, into per-view immutable Epochs published through an
// atomic pointer. A reader pins an Epoch with one atomic load and owns
// it forever; the writer never blocks on readers and readers never block
// on the writer.
package server

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/catalog"
	"repro/internal/value"
)

// Row is one view row inside an Epoch: an owning tuple copy and its bag
// multiplicity.
type Row struct {
	Tuple value.Tuple
	Count int64
}

// Epoch is an immutable snapshot of one view as of a feed sequence
// number. Published epochs are never mutated: handlers serve from them
// without synchronization, and a client that pins Seq re-reads
// byte-identical contents for as long as the epoch is retained.
// Successive epochs of a view share every tree node the windows between
// them did not touch (ptree.go).
type Epoch struct {
	// Seq is the feed sequence number whose application produced this
	// epoch (0 for the seed snapshot taken before any window).
	Seq uint64
	// LSN is the WAL durability point covering the epoch (0 in-memory).
	LSN uint64

	root *node // rows in compareTuples order; nil when empty
	len  int
}

// Len returns the number of rows.
func (e *Epoch) Len() int { return e.len }

// Lookup returns the row whose tuple has the same encoded key as t.
func (e *Epoch) Lookup(t value.Tuple) (Row, bool) {
	for n := e.root; n != nil; {
		i, found := n.search(t)
		if n.leaf {
			if found {
				return n.ents[i].Row, true
			}
			break
		}
		if !found {
			if i == 0 {
				break // below the smallest row
			}
			i--
		}
		n = n.ents[i].kid
	}
	return Row{}, false
}

// Page returns up to limit rows (all of them when limit < 0) starting at
// rank offset, in tree order. Offsets outside [0, Len] are clamped.
func (e *Epoch) Page(offset, limit int) []Row {
	offset = min(max(offset, 0), e.len)
	n := e.len - offset
	if limit >= 0 && limit < n {
		n = limit
	}
	if n == 0 {
		return nil
	}
	return appendRange(make([]Row, 0, n), e.root, offset)
}

// viewState is one served view. gen and the ring are owned by the hub
// goroutine; cur is the lock-free read path.
type viewState struct {
	name   string
	schema *catalog.Schema
	eqID   int

	gen uint64 // fold generation (hub goroutine only)
	cur atomic.Pointer[Epoch]

	// ring retains recent epochs, oldest first, so a client can pin a
	// sequence number across several requests (hub goroutine appends
	// under the hub mutex; readers copy the slice header under it too).
	ring []*Epoch

	subs []*subscriber // guarded by the hub mutex
}

// seedEpoch bulk-loads the seed epoch from the rows of the view's
// relation: any order, each tuple once (a relation keys its rows by
// encoded tuple).
func seedEpoch(seq uint64, rows []Row) *Epoch {
	slices.SortFunc(rows, func(a, b Row) int { return compareTuples(a.Tuple, b.Tuple) })
	return &Epoch{Seq: seq, root: bulkLoad(rows), len: len(rows)}
}

// fold applies one view delta to the current epoch and returns the next
// one. Counts are normalized to >= 1 by the cloning path, matching the
// wire codec.
func (vs *viewState) fold(changes []Change, seq, lsn uint64) *Epoch {
	cur := vs.cur.Load()
	root, n := cur.root, cur.len
	vs.gen++
	for _, c := range changes {
		var d int
		if c.Old != nil {
			root, d = addRow(root, c.Old, -c.Count, vs.gen)
			n += d
		}
		if c.New != nil {
			root, d = addRow(root, c.New, c.Count, vs.gen)
			n += d
		}
	}
	return &Epoch{Seq: seq, LSN: lsn, root: root, len: n}
}

// appendValueJSON renders one scalar as JSON. Int stays integral (no
// float round-trip), strings are escaped exactly as encoding/json
// escapes them, and non-finite floats degrade to null (JSON has no
// NaN/Inf).
func appendValueJSON(dst []byte, v value.Value) []byte {
	switch v.Kind {
	case value.Int:
		return strconv.AppendInt(dst, v.I, 10)
	case value.Float:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			return append(dst, "null"...)
		}
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case value.String:
		return appendJSONString(dst, v.S)
	case value.Bool:
		if v.B {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	default:
		return append(dst, "null"...)
	}
}

// appendJSONString renders s as a JSON string, byte for byte as
// json.Marshal does (HTML-safe escapes, invalid UTF-8 as U+FFFD, U+2028
// and U+2029 escaped), without its allocations.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendTupleJSON renders a tuple as a JSON array.
func appendTupleJSON(dst []byte, t value.Tuple) []byte {
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendValueJSON(dst, v)
	}
	return append(dst, ']')
}

// tupleFromJSON decodes a JSON array into a tuple typed by the schema —
// the point-query key parser. JSON numbers land as Int or Float per the
// column kind, so clients can write [3] for an INT column.
func tupleFromJSON(data []byte, s *catalog.Schema) (value.Tuple, error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, errf("key is not a JSON array: %v", err)
	}
	if len(raw) != s.Len() {
		return nil, errf("key has %d values, view has %d columns", len(raw), s.Len())
	}
	t := make(value.Tuple, len(raw))
	for i, r := range raw {
		col := s.Cols[i]
		if string(r) == "null" {
			t[i] = value.NewNull()
			continue
		}
		switch col.Type {
		case value.Int:
			var n int64
			if err := json.Unmarshal(r, &n); err != nil {
				return nil, errf("column %s wants INT: %v", col.Name, err)
			}
			t[i] = value.NewInt(n)
		case value.Float:
			var f float64
			if err := json.Unmarshal(r, &f); err != nil {
				return nil, errf("column %s wants FLOAT: %v", col.Name, err)
			}
			t[i] = value.NewFloat(f)
		case value.String:
			var str string
			if err := json.Unmarshal(r, &str); err != nil {
				return nil, errf("column %s wants VARCHAR: %v", col.Name, err)
			}
			t[i] = value.NewString(str)
		case value.Bool:
			var b bool
			if err := json.Unmarshal(r, &b); err != nil {
				return nil, errf("column %s wants BOOLEAN: %v", col.Name, err)
			}
			t[i] = value.NewBool(b)
		default:
			t[i] = value.NewNull()
		}
	}
	return t, nil
}
