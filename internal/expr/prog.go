package expr

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/value"
)

// Prog is an expression compiled to a flat postfix program over resolved
// column offsets — the one compiled evaluator behind selection, join
// residuals, projections, aggregate arguments and DML WHERE/SET. One
// instruction array walked with a reused value stack, no per-node
// dynamic calls, no captured environments for the GC to scan.
// Short-circuit AND/OR compile to conditional jumps, so evaluation order
// and truthiness semantics match Eval exactly.
//
// A resolved column compared with a literal (`Col op Lit`, the shape of
// nearly every WHERE and of most selection predicates) compiles to one
// fused instruction that reads the column and the constant in place
// instead of pushing both through the stack; when it is the whole
// program, Eval returns its result directly. A literal on the left
// (`Lit op Col`) takes the general path.
//
// A Prog reuses its evaluation stack across calls and is therefore not
// safe for concurrent use. Every caller compiles per use — per operator
// evaluation, per DML statement, per track plan — so no Prog is ever
// shared between goroutines.
type Prog struct {
	code   []instr
	consts []value.Value
	stack  []value.Value
}

type opcode uint8

const (
	opCol       opcode = iota // push t[a]
	opConst                   // push consts[a]
	opCmp                     // pop r,l; push cmpValues(cmp, l, r)
	opColCmpLit               // push cmpValues(cmp, t[a], consts[b])
	opArith                   // pop r,l; push arithValues(ArithOp(a), l, r)
	opNot                     // pop v; push !v.Truth()
	opJmpFalse                // pop v; if !v.Truth() jump to a
	opJmpTrue                 // pop v; if v.Truth() jump to a
	opJmp                     // jump to a
)

type instr struct {
	op  opcode
	cmp CmpOp
	a   int32
	b   int32
}

// CompileProg compiles e against schema s. It returns an error when a
// column fails to resolve.
func CompileProg(e Expr, s *catalog.Schema) (*Prog, error) {
	p := &Prog{}
	if err := p.compile(e, s); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Prog) emit(in instr) int {
	p.code = append(p.code, in)
	return len(p.code) - 1
}

func (p *Prog) patch(at int) { p.code[at].a = int32(len(p.code)) }

func (p *Prog) constIndex(v value.Value) int32 {
	p.consts = append(p.consts, v)
	return int32(len(p.consts) - 1)
}

func (p *Prog) pushConst(v value.Value) { p.emit(instr{op: opConst, a: p.constIndex(v)}) }

func (p *Prog) compile(e Expr, s *catalog.Schema) error {
	switch v := e.(type) {
	case Col:
		i, err := s.Resolve(v.Name)
		if err != nil {
			return err
		}
		p.emit(instr{op: opCol, a: int32(i)})
	case Lit:
		p.pushConst(v.V)
	case Cmp:
		if c, ok := v.L.(Col); ok {
			if l, ok := v.R.(Lit); ok {
				i, err := s.Resolve(c.Name)
				if err != nil {
					return err
				}
				p.emit(instr{op: opColCmpLit, cmp: v.Op, a: int32(i), b: p.constIndex(l.V)})
				return nil
			}
		}
		if err := p.compile(v.L, s); err != nil {
			return err
		}
		if err := p.compile(v.R, s); err != nil {
			return err
		}
		p.emit(instr{op: opCmp, cmp: v.Op})
	case Arith:
		if err := p.compile(v.L, s); err != nil {
			return err
		}
		if err := p.compile(v.R, s); err != nil {
			return err
		}
		p.emit(instr{op: opArith, a: int32(v.Op)})
	case And:
		// term1; jmpFalse F; term2; jmpFalse F; ...; push true; jmp E;
		// F: push false; E:
		var falses []int
		for _, term := range v.Terms {
			if err := p.compile(term, s); err != nil {
				return err
			}
			falses = append(falses, p.emit(instr{op: opJmpFalse}))
		}
		p.pushConst(value.NewBool(true))
		end := p.emit(instr{op: opJmp})
		for _, at := range falses {
			p.patch(at)
		}
		p.pushConst(value.NewBool(false))
		p.patch(end)
	case Or:
		// l; jmpTrue T; r; jmpTrue T; push false; jmp E; T: push true; E:
		if err := p.compile(v.L, s); err != nil {
			return err
		}
		t1 := p.emit(instr{op: opJmpTrue})
		if err := p.compile(v.R, s); err != nil {
			return err
		}
		t2 := p.emit(instr{op: opJmpTrue})
		p.pushConst(value.NewBool(false))
		end := p.emit(instr{op: opJmp})
		p.patch(t1)
		p.patch(t2)
		p.pushConst(value.NewBool(true))
		p.patch(end)
	case Not:
		if err := p.compile(v.E, s); err != nil {
			return err
		}
		p.emit(instr{op: opNot})
	default:
		return fmt.Errorf("expr: no compilation for %T", e)
	}
	return nil
}

// Eval runs the program against t.
func (p *Prog) Eval(t value.Tuple) value.Value {
	code := p.code
	if len(code) == 1 && code[0].op == opColCmpLit {
		return cmpValues(code[0].cmp, t[code[0].a], p.consts[code[0].b])
	}
	st := p.stack[:0]
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.op {
		case opCol:
			st = append(st, t[in.a])
		case opConst:
			st = append(st, p.consts[in.a])
		case opCmp:
			r := st[len(st)-1]
			st = st[:len(st)-1]
			st[len(st)-1] = cmpValues(in.cmp, st[len(st)-1], r)
		case opColCmpLit:
			st = append(st, cmpValues(in.cmp, t[in.a], p.consts[in.b]))
		case opArith:
			r := st[len(st)-1]
			st = st[:len(st)-1]
			st[len(st)-1] = arithValues(ArithOp(in.a), st[len(st)-1], r)
		case opNot:
			st[len(st)-1] = value.NewBool(!st[len(st)-1].Truth())
		case opJmpFalse:
			v := st[len(st)-1]
			st = st[:len(st)-1]
			if !v.Truth() {
				pc = int(in.a) - 1
			}
		case opJmpTrue:
			v := st[len(st)-1]
			st = st[:len(st)-1]
			if v.Truth() {
				pc = int(in.a) - 1
			}
		case opJmp:
			pc = int(in.a) - 1
		}
	}
	p.stack = st
	return st[len(st)-1]
}

// Truth evaluates the program in predicate position.
func (p *Prog) Truth(t value.Tuple) bool { return p.Eval(t).Truth() }
