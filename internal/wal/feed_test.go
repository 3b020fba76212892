package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/value"
)

func feedSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "K", Type: value.String},
		catalog.Column{Name: "V", Type: value.Int},
	)
}

func feedWindow(schema *catalog.Schema, i int) delta.Coalesced {
	d := delta.New(schema)
	d.Insert(value.Tuple{value.NewString("k"), value.NewInt(int64(i))}, 1)
	return delta.Coalesced{{Rel: "view_T", Delta: d}}
}

// TestFeedLogRoundTrip appends records across a reopen and replays them
// back, including a window of zero transactions (txns=0), which the segment
// format reserves as an invalid frame marker and the feed log must
// therefore bias around.
func TestFeedLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	schema := feedSchema()
	schemas := delta.SchemaSource(func(string) (*catalog.Schema, bool) { return schema, true })

	f, err := OpenFeedLog(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		txns := i
		if i == 2 {
			txns = 0 // a window of zero transactions
		}
		seq, err := f.Append(uint64(i), uint64(100+i), txns, feedWindow(schema, i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f, err = OpenFeedLog(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.LastSeq(); got != 3 {
		t.Fatalf("LastSeq after reopen = %d, want 3", got)
	}
	if _, err := f.Append(4, 104, 2, feedWindow(schema, 4)); err != nil {
		t.Fatal(err)
	}

	var recs []FeedRecord
	if err := f.Replay(1, schemas, func(r FeedRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replay after=1 returned %d records, want 3", len(recs))
	}
	wantTxns := []int{0, 3, 2}
	for i, r := range recs {
		if r.Seq != uint64(i+2) || r.WindowSeq != uint64(i+2) || r.LSN != uint64(102+i) {
			t.Fatalf("record %d = seq %d window %d lsn %d", i, r.Seq, r.WindowSeq, r.LSN)
		}
		if r.Txns != wantTxns[i] {
			t.Fatalf("record %d txns = %d, want %d", i, r.Txns, wantTxns[i])
		}
		if len(r.Views) != 1 || r.Views[0].Rel != "view_T" || len(r.Views[0].Delta.Changes) != 1 {
			t.Fatalf("record %d views = %+v", i, r.Views)
		}
	}
}

// TestFeedLogTornTail truncates the newest segment mid-frame (a crash
// while an un-fsynced append was in flight) and requires reopen to keep
// the valid prefix and continue the sequence from there.
func TestFeedLogTornTail(t *testing.T) {
	dir := t.TempDir()
	schema := feedSchema()
	schemas := delta.SchemaSource(func(string) (*catalog.Schema, bool) { return schema, true })

	f, err := OpenFeedLog(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := f.Append(uint64(i), uint64(i), 1, feedWindow(schema, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no feed segments in %s (%v)", dir, err)
	}
	seg := segs[len(segs)-1]
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the last frame: far enough back to destroy it, not far
	// enough to reach the second record.
	if err := os.Truncate(seg, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	f, err = OpenFeedLog(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.LastSeq(); got != 2 {
		t.Fatalf("LastSeq after torn tail = %d, want 2", got)
	}
	if _, err := f.Append(3, 3, 1, feedWindow(schema, 3)); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if err := f.Replay(0, schemas, func(r FeedRecord) error {
		seqs = append(seqs, r.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Fatalf("replay after torn tail = %v, want [1 2 3]", seqs)
	}
}
