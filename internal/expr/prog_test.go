package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
)

func progSchema() *catalog.Schema {
	return &catalog.Schema{Cols: []catalog.Column{
		{Name: "A", Type: value.Int},
		{Name: "B", Type: value.Int},
		{Name: "C", Type: value.Float},
		{Name: "D", Type: value.String},
		{Name: "E", Type: value.Bool},
	}}
}

// randExpr builds a random expression over the test schema, including
// NULL-producing comparisons, nested boolean structure and arithmetic.
func randExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return C([]string{"A", "B", "C", "D", "E"}[rng.Intn(5)])
		case 1:
			return IntLit(int64(rng.Intn(7) - 3))
		case 2:
			return FloatLit(float64(rng.Intn(5)) / 2)
		default:
			return StrLit([]string{"x", "y", ""}[rng.Intn(3)])
		}
	}
	switch rng.Intn(6) {
	case 0:
		ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
		return Compare(ops[rng.Intn(len(ops))], randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 1:
		ops := []ArithOp{Plus, Minus, Times, Over}
		return Arith{Op: ops[rng.Intn(len(ops))], L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 2:
		n := 1 + rng.Intn(3)
		terms := make([]Expr, n)
		for i := range terms {
			terms[i] = randExpr(rng, depth-1)
		}
		return And{Terms: terms}
	case 3:
		return Or{L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 4:
		return Not{E: randExpr(rng, depth-1)}
	default:
		return randExpr(rng, 0)
	}
}

func randTuple(rng *rand.Rand) value.Tuple {
	pick := func() value.Value {
		switch rng.Intn(5) {
		case 0:
			return value.NewInt(int64(rng.Intn(9) - 4))
		case 1:
			return value.NewFloat(float64(rng.Intn(9)) / 2)
		case 2:
			return value.NewString([]string{"x", "y", ""}[rng.Intn(3)])
		case 3:
			return value.NewBool(rng.Intn(2) == 0)
		default:
			return value.NewNull()
		}
	}
	return value.Tuple{pick(), pick(), pick(), pick(), pick()}
}

// TestProgDifferential pits the flat program against the tree-walking
// Eval on random expressions and tuples — values (including NULL
// propagation and truthiness short-circuits) must agree exactly.
func TestProgDifferential(t *testing.T) {
	s := progSchema()
	rng := rand.New(rand.NewSource(0xE15A))
	exprs := 0
	for i := 0; i < 400; i++ {
		e := randExpr(rng, 1+rng.Intn(4))
		prog, err := CompileProg(e, s)
		if err != nil {
			t.Fatalf("CompileProg(%s): %v", e, err)
		}
		exprs++
		for j := 0; j < 50; j++ {
			tu := randTuple(rng)
			got := prog.Eval(tu)
			want := e.Eval(s, tu)
			if !value.Equal(got, want) || got.IsNull() != want.IsNull() {
				t.Fatalf("expr %s on %s: prog=%v eval=%v", e, tu, got, want)
			}
			if prog.Truth(tu) != want.Truth() {
				t.Fatalf("expr %s on %s: Truth mismatch", e, tu)
			}
		}
	}
	if exprs == 0 {
		t.Fatal("no expressions exercised")
	}
}

func TestProgShortCircuit(t *testing.T) {
	s := progSchema()
	// (A = 1 AND B = 2) with A mismatching must not evaluate B — observable
	// through division: AND short-circuits before 1/0.
	e := AndOf(
		Compare(EQ, C("A"), IntLit(99)),
		Compare(EQ, Arith{Op: Over, L: IntLit(1), R: IntLit(0)}, IntLit(1)),
	)
	prog, err := CompileProg(e, s)
	if err != nil {
		t.Fatal(err)
	}
	tu := value.Tuple{value.NewInt(1), value.NewInt(2), value.NewFloat(0), value.NewString(""), value.NewBool(false)}
	if prog.Eval(tu).Truth() {
		t.Fatal("AND with false first term evaluated true")
	}
	// Division by zero yields NULL (per value.Div), so even when reached
	// the result must mirror the tree-walking Eval.
	e2 := AndOf(
		Compare(EQ, C("A"), IntLit(1)),
		Compare(EQ, Arith{Op: Over, L: IntLit(1), R: IntLit(0)}, IntLit(1)),
	)
	prog2, _ := CompileProg(e2, s)
	if prog2.Eval(tu).Truth() != e2.Eval(s, tu).Truth() {
		t.Fatal("NULL-producing second term diverged from Eval")
	}
}

// TestProgFusedColCmpLit pins the fused column-vs-literal instruction:
// every operator, NULL columns, Int columns against Float literals, and
// the unfused literal-on-the-left shape, each against Eval.
func TestProgFusedColCmpLit(t *testing.T) {
	s := progSchema()
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	lits := []Lit{IntLit(2), FloatLit(2), FloatLit(2.5), StrLit("x"), {V: value.NewNull()}}
	cols := []value.Value{value.NewInt(1), value.NewInt(2), value.NewInt(3), value.NewNull()}
	fused := func(p *Prog) bool {
		for _, in := range p.code {
			if in.op == opColCmpLit {
				return true
			}
		}
		return false
	}
	check := func(e Expr, wantFused bool) {
		t.Helper()
		p, err := CompileProg(e, s)
		if err != nil {
			t.Fatalf("CompileProg(%s): %v", e, err)
		}
		if fused(p) != wantFused {
			t.Fatalf("%s: fused = %v, want %v", e, !wantFused, wantFused)
		}
		for _, a := range cols {
			for _, d := range []value.Value{value.NewString("x"), value.NewString("y"), value.NewNull()} {
				tu := value.Tuple{a, value.NewInt(0), value.NewFloat(0), d, value.NewBool(true)}
				got, want := p.Eval(tu), e.Eval(s, tu)
				if !value.Equal(got, want) || got.IsNull() != want.IsNull() {
					t.Fatalf("%s on %s: prog=%v eval=%v", e, tu, got, want)
				}
			}
		}
	}
	for _, op := range ops {
		for _, l := range lits {
			check(Compare(op, C("A"), l), true)  // Int column (or NULL) vs literal
			check(Compare(op, C("D"), l), true)  // String column vs literal
			check(Compare(op, l, C("A")), false) // literal on the left: general path
			check(Compare(op, C("A"), C("B")), false)
			check(AndOf(Compare(op, C("A"), l), Compare(NE, C("D"), StrLit("y"))), true)
			check(Not{E: Compare(op, C("A"), l)}, true)
		}
	}
	// A fused comparison is the whole program: one instruction, no stack.
	p, _ := CompileProg(Compare(EQ, C("D"), StrLit("x")), s)
	if len(p.code) != 1 {
		t.Fatalf("Col = Lit compiled to %d instructions, want 1", len(p.code))
	}
}

// BenchmarkProgScan is the DML front door's WHERE scan: a
// `EName = 'literal'` predicate evaluated over 10k rows, the shape
// UPDATE/DELETE compile per statement and run across a base relation.
func BenchmarkProgScan(b *testing.B) {
	s := &catalog.Schema{Cols: []catalog.Column{
		{Qualifier: "Emp", Name: "EName", Type: value.String},
		{Qualifier: "Emp", Name: "DName", Type: value.String},
		{Qualifier: "Emp", Name: "Salary", Type: value.Int},
	}}
	rows := make([]value.Tuple, 10000)
	for i := range rows {
		rows[i] = value.Tuple{
			value.NewString(fmt.Sprintf("e%03d_%02d", i/100, i%100)),
			value.NewString(fmt.Sprintf("d%03d", i/100)),
			value.NewInt(int64(100 + i%50)),
		}
	}
	p, err := CompileProg(Compare(EQ, C("EName"), StrLit("e050_50")), s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, r := range rows {
			if p.Truth(r) {
				n++
			}
		}
		if n != 1 {
			b.Fatalf("matched %d rows, want 1", n)
		}
	}
}
