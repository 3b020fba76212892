package main

import (
	"testing"

	"repro/internal/txn"
)

func TestParseTxn(t *testing.T) {
	ty, err := parseTxn("modify:Emp:Salary:1:2")
	if err != nil {
		t.Fatal(err)
	}
	if ty.Weight != 2 || len(ty.Updates) != 1 {
		t.Fatalf("parsed = %+v", ty)
	}
	u := ty.Updates[0]
	if u.Rel != "Emp" || u.Kind != txn.Modify || u.Size != 1 ||
		len(u.Cols) != 1 || u.Cols[0] != "Salary" {
		t.Errorf("update = %+v", u)
	}

	ty, err = parseTxn("modify:Emp:Salary+DName:2:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(ty.Updates[0].Cols) != 2 || ty.Updates[0].Size != 2 || ty.Weight != 0.5 {
		t.Errorf("multi-col parse = %+v", ty.Updates[0])
	}

	ty, err = parseTxn("insert:ADepts:1:3")
	if err != nil {
		t.Fatal(err)
	}
	if ty.Updates[0].Kind != txn.Insert || ty.Updates[0].Size != 1 || ty.Weight != 3 {
		t.Errorf("insert parse = %+v", ty)
	}

	ty, err = parseTxn("delete:Emp:5:1")
	if err != nil {
		t.Fatal(err)
	}
	if ty.Updates[0].Kind != txn.Delete || ty.Updates[0].Size != 5 {
		t.Errorf("delete parse = %+v", ty)
	}
}

func TestParseTxnErrors(t *testing.T) {
	bad := []string{
		"",
		"modify:Emp",       // too short
		"modify:Emp:1:1",   // missing cols for modify
		"upsert:Emp:1:1",   // unknown kind
		"insert:Emp:abc:1", // bad size
		"insert:Emp:1:xyz", // bad weight
	}
	for _, spec := range bad {
		if _, err := parseTxn(spec); err == nil {
			t.Errorf("no error for %q", spec)
		}
	}
}
