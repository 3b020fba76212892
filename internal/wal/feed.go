package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/delta"
	"repro/internal/obs"
)

// FeedLog is the changefeed journal: an append-only record of every
// maintenance window that changed at least one materialized view, keyed
// by a contiguous feed sequence number. A reconnecting SSE subscriber
// replays the records after its Last-Event-ID from here, then splices
// onto the live fan-out — the log is the resume buffer the per-client
// rings are too small to be.
//
// The on-disk format reuses the WAL's segment layout (header, CRC32C
// frames, contiguous sequence numbers, torn-tail truncation on open),
// so scanSegment is the single scanner for both logs. The frame's
// transaction-count slot carries txns+1: the window hook admits windows
// of zero transactions, and the scanner treats a zero count as a torn
// record. The body is feed-specific:
//
//	body = uvarint windowSeq | uvarint walLSN | encoded window
//
// where the window's relation names are VIEW names resolved against the
// view schemas, not base relations.
//
// Unlike Log, the feed is written without fsync — it is derivable from
// the primary WAL, so a crash costs at worst a re-derivable suffix —
// and it supports concurrent readers while the writer appends: readers
// scan segment images and simply stop at the first incomplete frame,
// which the live fan-out covers.
type FeedLog struct {
	mu       sync.Mutex
	fsys     FS
	dir      string
	segBytes int

	lastSeq uint64
	segs    []segInfo
	cur     File
	curName string
	curSize int
	buf     []byte
	fbuf    []byte
	broken  error
}

var (
	feedBytes = obs.C("feed.bytes")
	feedRecs  = obs.C("feed.records")
)

// FeedRecord is one changefeed entry as read back from the log.
type FeedRecord struct {
	// Seq is the contiguous feed sequence number (the SSE event id).
	Seq uint64
	// WindowSeq is the maintainer's window sequence that produced the
	// entry; it can skip values the feed never saw (empty windows).
	WindowSeq uint64
	// LSN is the primary WAL durability point covering the window (0
	// for in-memory systems, and for windows committed after the hook
	// fires, as an assertion checker's are).
	LSN uint64
	// Txns is the window's transaction count.
	Txns int
	// Views holds the per-view net deltas, sorted by view name.
	Views delta.Coalesced
}

// OpenFeedLog opens (creating if needed) a changefeed directory,
// scanning segments and truncating any torn tail exactly like OpenLog.
func OpenFeedLog(fsys FS, dir string, opts Options) (*FeedLog, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: feed mkdir: %w", err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: feed readdir: %w", err)
	}
	f := &FeedLog{fsys: fsys, dir: dir, segBytes: opts.segBytes()}
	var segNames []string
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			segNames = append(segNames, n)
		}
	}
	valid := true
	for i, name := range segNames {
		if !valid {
			if err := fsys.Remove(join(dir, name)); err != nil {
				return nil, fmt.Errorf("wal: feed remove %s: %w", name, err)
			}
			continue
		}
		data, err := fsys.ReadFile(join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("wal: feed read %s: %w", name, err)
		}
		hdrSeq, recs, validLen, hdrOK := scanSegment(data)
		nameSeq, _ := parseSegName(name)
		if !hdrOK || hdrSeq != nameSeq || (i > 0 && hdrSeq != f.lastSeq+1) {
			valid = false
			if err := fsys.Remove(join(dir, name)); err != nil {
				return nil, fmt.Errorf("wal: feed remove %s: %w", name, err)
			}
			continue
		}
		if i == 0 {
			f.lastSeq = hdrSeq - 1
		}
		if validLen < len(data) {
			if err := fsys.Truncate(join(dir, name), int64(validLen)); err != nil {
				return nil, fmt.Errorf("wal: feed truncate %s: %w", name, err)
			}
			valid = false
		}
		f.segs = append(f.segs, segInfo{name: name, firstLSN: hdrSeq})
		f.lastSeq += uint64(len(recs))
		f.curName = name
		f.curSize = validLen
	}
	return f, nil
}

// LastSeq returns the sequence number of the last appended record (0 if
// none).
func (f *FeedLog) LastSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastSeq
}

// Append writes one changefeed record and returns its feed sequence
// number. views must be non-empty and sorted by view name; the caller
// (the server hub) owns serialization of appends, but Append is still
// mutex-guarded so readers can snapshot the segment list concurrently.
// No fsync: the feed trades a re-derivable crash suffix for not adding
// a second flush to every maintenance window.
func (f *FeedLog) Append(windowSeq, walLSN uint64, txns int, views delta.Coalesced) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.broken != nil {
		return 0, f.broken
	}
	seq := f.lastSeq + 1
	f.buf = f.buf[:0]
	f.buf = binary.AppendUvarint(f.buf, seq)
	f.buf = binary.AppendUvarint(f.buf, uint64(txns)+1)
	f.buf = binary.AppendUvarint(f.buf, windowSeq)
	f.buf = binary.AppendUvarint(f.buf, walLSN)
	f.buf = delta.AppendWindow(f.buf, views)
	payload := f.buf
	if len(payload) > maxRecordLen {
		return 0, fmt.Errorf("wal: feed payload %d exceeds max record size", len(payload))
	}
	if cap(f.fbuf) < frameOverhead+len(payload) {
		f.fbuf = make([]byte, frameOverhead+len(payload))
	}
	frame := f.fbuf[:frameOverhead+len(payload)]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameOverhead:], payload)
	if err := f.ensureSegment(seq, len(frame)); err != nil {
		f.broken = err
		return 0, err
	}
	if _, err := f.cur.Write(frame); err != nil {
		f.broken = fmt.Errorf("wal: feed write: %w", err)
		return 0, f.broken
	}
	f.curSize += len(frame)
	f.lastSeq = seq
	feedBytes.Add(int64(len(frame)))
	feedRecs.Inc()
	return seq, nil
}

// ensureSegment mirrors Log.ensureSegment for the feed's writer state.
// Callers hold f.mu.
func (f *FeedLog) ensureSegment(firstSeq uint64, frameLen int) error {
	full := func() bool {
		return f.curSize+frameLen > f.segBytes && f.curSize > segHeaderLen
	}
	if f.cur == nil && f.curName != "" && !full() {
		h, err := f.fsys.OpenAppend(join(f.dir, f.curName))
		if err != nil {
			return fmt.Errorf("wal: feed reopen segment: %w", err)
		}
		f.cur = h
		return nil
	}
	if f.cur != nil && !full() {
		return nil
	}
	if f.cur != nil {
		if err := f.cur.Close(); err != nil {
			return fmt.Errorf("wal: feed close segment: %w", err)
		}
		f.cur = nil
	}
	name := segName(firstSeq)
	h, err := f.fsys.OpenAppend(join(f.dir, name))
	if err != nil {
		return fmt.Errorf("wal: feed create segment: %w", err)
	}
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	binary.BigEndian.PutUint64(hdr[8:], firstSeq)
	if _, err := h.Write(hdr); err != nil {
		h.Close()
		return fmt.Errorf("wal: feed write segment header: %w", err)
	}
	f.cur = h
	f.curName = name
	f.curSize = segHeaderLen
	f.segs = append(f.segs, segInfo{name: name, firstLSN: firstSeq})
	return nil
}

// Replay streams every record with Seq > after to fn, in sequence
// order, resolving VIEW schemas through schemas. Safe to call while the
// writer appends: a reader that races an in-flight frame sees a shorter
// valid prefix (the CRC or length check fails) and stops there — the
// caller's live splice covers whatever the scan missed.
func (f *FeedLog) Replay(after uint64, schemas delta.SchemaSource, fn func(FeedRecord) error) error {
	f.mu.Lock()
	segs := append([]segInfo(nil), f.segs...)
	f.mu.Unlock()
	for _, seg := range segs {
		data, err := f.fsys.ReadFile(join(f.dir, seg.name))
		if err != nil {
			return fmt.Errorf("wal: feed read %s: %w", seg.name, err)
		}
		_, recs, _, _ := scanSegment(data)
		for _, rec := range recs {
			if rec.lsn <= after {
				continue
			}
			body := rec.body
			windowSeq, sz := binary.Uvarint(body)
			if sz <= 0 {
				return fmt.Errorf("wal: feed record %d: bad window seq", rec.lsn)
			}
			body = body[sz:]
			walLSN, sz := binary.Uvarint(body)
			if sz <= 0 {
				return fmt.Errorf("wal: feed record %d: bad wal lsn", rec.lsn)
			}
			views, rest, err := delta.DecodeWindow(body[sz:], schemas)
			if err != nil {
				return fmt.Errorf("wal: feed record %d: %w", rec.lsn, err)
			}
			if len(rest) != 0 {
				return fmt.Errorf("wal: feed record %d: %d trailing bytes", rec.lsn, len(rest))
			}
			if err := fn(FeedRecord{
				Seq:       rec.lsn,
				WindowSeq: windowSeq,
				LSN:       walLSN,
				Txns:      rec.txns - 1,
				Views:     views,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close releases the open segment handle, syncing it first so restarts
// resume from a clean tail in the common case.
func (f *FeedLog) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cur != nil {
		_ = f.cur.Sync()
		err := f.cur.Close()
		f.cur = nil
		if err != nil {
			return err
		}
	}
	return nil
}
