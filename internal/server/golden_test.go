package server_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGoldenBodies pins the bytes of the hand-built JSON bodies: for
// fixed view contents, /views, every /view read shape and the changefeed
// event payloads must stay byte-identical to testdata/golden_bodies.txt.
// The rows carry no ties under Tuple.Compare, so their page order is the
// same under every ordering the server has used. Regenerate with
// go test ./internal/server/ -run GoldenBodies -update.
func TestGoldenBodies(t *testing.T) {
	schema := catalog.NewSchema(
		catalog.Column{Name: "Name", Type: value.String},
		catalog.Column{Name: "N", Type: value.Int},
		catalog.Column{Name: "F", Type: value.Float},
		catalog.Column{Name: "B", Type: value.Bool},
	)
	row := func(name string, n int64, f float64, b bool) value.Tuple {
		return value.Tuple{value.NewString(name), value.NewInt(n), value.NewFloat(f), value.NewBool(b)}
	}
	rel, err := storage.NewStore().Create(&catalog.TableDef{Name: "V", Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	rel.Load([]storage.Row{
		{Tuple: row("alpha", 1, 0.5, true), Count: 1},
		{Tuple: row(`quo"te\back`, -42, 1e21, false), Count: 3},
		{Tuple: row("tab\there", math.MaxInt64, math.Inf(1), true), Count: 1},
		{Tuple: row("<é&>", math.MinInt64, -2.25e-7, false), Count: 2},
		{Tuple: value.Tuple{value.NewString("nulls"), value.NewNull(), value.NewNull(), value.NewNull()}, Count: 1},
		{Tuple: row("zeta", 7, 3, true), Count: 1},
		{Tuple: row("ctl\x01\b\f\n\r\u2028\u2029\xff", 5, 0, false), Count: 1},
	})
	hub, err := server.NewHub(server.HubConfig{Views: []server.ViewSource{
		{Name: "V", Schema: schema, EqID: 1, Rel: rel}}})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	srv := server.New(server.Config{Hub: hub})
	sub, err := hub.Subscribe("V", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var out bytes.Buffer
	read := func(target string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		fmt.Fprintf(&out, "GET %s -> %d\n%s\n", target, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	reads := func() {
		for _, q := range []string{"", "?limit=2", "?offset=4", "?offset=1&limit=3",
			"?offset=99", "?limit=0", "?limit=-1&offset=-5",
			`?key=["alpha",1,0.5,true]`, `?key=["zeta",7,3.0,true]`, `?key=["absent",0,0,false]`} {
			read("/view/V" + q)
		}
		read("/views")
	}
	window := func(seq uint64, build func(d *delta.Delta)) {
		d := delta.New(schema)
		build(d)
		hub.OnWindow(maintain.WindowUpdate{Seq: seq, LSN: 10 * seq, Txns: int(seq),
			Deltas: map[int]*delta.Delta{1: d}})
		select {
		case ev := <-sub.Events():
			fmt.Fprintf(&out, "event %d\n%s\n", ev.Seq, ev.Data)
		case <-time.After(10 * time.Second):
			t.Fatalf("window %d: no event", seq)
		}
	}

	reads()
	window(1, func(d *delta.Delta) {
		d.Insert(row("beta", 2, -0.125, false), 2)
		d.Delete(row("zeta", 7, 3, true), 1)
		d.Modify(row("alpha", 1, 0.5, true), row("alpha", 100, 0.5, true), 1)
	})
	reads()
	window(2, func(d *delta.Delta) {
		d.Delete(row(`quo"te\back`, -42, 1e21, false), 1)
		d.Insert(row("beta", 2, -0.125, false), 1)
	})
	reads()
	read("/view/V?epoch=1")
	read("/view/V?epoch=0&offset=2&limit=2")

	golden := filepath.Join("testdata", "golden_bodies.txt")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("bodies differ from %s:\n got:\n%s\nwant:\n%s", golden, out.Bytes(), want)
	}
}
