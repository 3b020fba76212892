package expr

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/value"
)

func testSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Qualifier: "T", Name: "a", Type: value.Int},
		catalog.Column{Qualifier: "T", Name: "b", Type: value.Int},
		catalog.Column{Qualifier: "T", Name: "s", Type: value.String},
	)
}

func TestEvalBasics(t *testing.T) {
	s := testSchema()
	tup := value.Tuple{value.NewInt(3), value.NewInt(5), value.NewString("x")}
	cases := []struct {
		e    Expr
		want value.Value
	}{
		{C("a"), value.NewInt(3)},
		{C("T.b"), value.NewInt(5)},
		{IntLit(7), value.NewInt(7)},
		{Arith{Op: Plus, L: C("a"), R: C("b")}, value.NewInt(8)},
		{Arith{Op: Times, L: C("a"), R: IntLit(2)}, value.NewInt(6)},
		{Compare(GT, C("b"), C("a")), value.NewBool(true)},
		{Compare(EQ, C("s"), StrLit("x")), value.NewBool(true)},
		{Compare(NE, C("s"), StrLit("x")), value.NewBool(false)},
		{AndOf(Compare(GT, C("b"), C("a")), Compare(EQ, C("a"), IntLit(3))), value.NewBool(true)},
		{Or{L: Compare(LT, C("b"), C("a")), R: Compare(EQ, C("a"), IntLit(3))}, value.NewBool(true)},
		{Not{E: Compare(LT, C("b"), C("a"))}, value.NewBool(true)},
	}
	for _, c := range cases {
		if got := c.e.Eval(s, tup); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestUnknownColumnIsNull(t *testing.T) {
	s := testSchema()
	tup := value.Tuple{value.NewInt(1), value.NewInt(2), value.NewString("x")}
	if got := C("missing").Eval(s, tup); !got.IsNull() {
		t.Errorf("missing column = %v, want NULL", got)
	}
	// NULL comparisons are falsy in predicate position.
	if Compare(EQ, C("missing"), IntLit(1)).Eval(s, tup).Truth() {
		t.Error("NULL = 1 should not be truthy")
	}
}

func TestCompileMatchesEval(t *testing.T) {
	s := testSchema()
	exprs := []Expr{
		C("a"),
		Arith{Op: Minus, L: C("b"), R: C("a")},
		Arith{Op: Over, L: C("b"), R: C("a")},
		Compare(LE, C("a"), C("b")),
		AndOf(Compare(GT, C("a"), IntLit(0)), Compare(LT, C("b"), IntLit(10))),
		Or{L: Compare(EQ, C("s"), StrLit("y")), R: Compare(GE, C("a"), IntLit(0))},
		Not{E: Compare(EQ, C("a"), C("b"))},
	}
	compiled := make([]*Prog, len(exprs))
	for i, e := range exprs {
		p, err := CompileProg(e, s)
		if err != nil {
			t.Fatalf("CompileProg(%s): %v", e, err)
		}
		compiled[i] = p
	}
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(value.Tuple{
				value.NewInt(int64(r.Intn(10))),
				value.NewInt(int64(r.Intn(10))),
				value.NewString(string(rune('x' + r.Intn(3)))),
			})
		},
	}
	prop := func(tup value.Tuple) bool {
		for i, e := range exprs {
			if e.Eval(s, tup) != compiled[i].Eval(tup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestCompileRejectsUnknownColumns(t *testing.T) {
	s := testSchema()
	if _, err := CompileProg(C("nope"), s); err == nil {
		t.Error("CompileProg of unknown column should fail")
	}
	if _, err := CompileProg(AndOf(Compare(EQ, C("nope"), IntLit(1))), s); err == nil {
		t.Error("CompileProg should propagate nested errors")
	}
	// The fused column-vs-literal instruction resolves its column too.
	if _, err := CompileProg(AndOf(Compare(EQ, C("a"), IntLit(1)), Compare(LT, C("nope"), IntLit(2))), s); err == nil {
		t.Error("CompileProg should reject an unknown column in a fused comparison")
	}
	p, err := CompileProg(Compare(GT, C("a"), IntLit(0)), s)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Truth(value.Tuple{value.NewInt(1), value.NewInt(0), value.NewString("")}) {
		t.Error("compiled a > 0 is false on a = 1")
	}
}

func TestConjuncts(t *testing.T) {
	p := Compare(GT, C("a"), IntLit(0))
	q := Compare(LT, C("b"), IntLit(9))
	r := Compare(EQ, C("s"), StrLit("x"))
	e := AndOf(p, AndOf(q, r))
	got := Conjuncts(e)
	if len(got) != 3 {
		t.Fatalf("Conjuncts: got %d terms, want 3", len(got))
	}
	if len(Conjuncts(p)) != 1 {
		t.Error("single term should yield itself")
	}
}

func TestAndOfFlattensAndCanonicalizes(t *testing.T) {
	p := Compare(GT, C("a"), IntLit(0))
	q := Compare(LT, C("b"), IntLit(9))
	e1 := AndOf(p, q)
	e2 := AndOf(q, p)
	if e1.String() != e2.String() {
		t.Errorf("AND canonical form differs: %q vs %q", e1, e2)
	}
	if AndOf(p) != Expr(p) {
		t.Error("AndOf of one term should return the term")
	}
	if !AndOf().Eval(testSchema(), value.Tuple{value.NewInt(0), value.NewInt(0), value.NewString("")}).Truth() {
		t.Error("empty AND should be TRUE")
	}
}

func TestColumnsOf(t *testing.T) {
	e := AndOf(
		Compare(GT, C("T.b"), C("T.a")),
		Compare(EQ, C("T.a"), IntLit(1)),
	)
	got := ColumnsOf(e)
	want := []string{"T.a", "T.b"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("ColumnsOf = %v, want %v", got, want)
	}
}

func TestRefersOnly(t *testing.T) {
	s := testSchema()
	if !RefersOnly(Compare(EQ, C("a"), C("b")), s) {
		t.Error("a=b refers only to schema columns")
	}
	if RefersOnly(Compare(EQ, C("a"), C("other")), s) {
		t.Error("a=other should not resolve")
	}
}
