// Package sparc simulates a SPARC V8-class toolchain: "!" comments,
// bracketed memory operands ([%fp-8]), three-address register operations
// with 13-bit signed immediates, a synthetic `set` instruction for wide
// constants, delayed calls, and millicode .mul/.div/.rem routines.
package sparc

import (
	"slices"
	"strings"

	"srcg/internal/asm"
)

// Toolchain is the simulated SPARC cc/as/ld/run bundle.
type Toolchain struct {
	dialect asm.Dialect
}

// New returns the simulated SPARC toolchain.
func New() *Toolchain {
	t := &Toolchain{}
	t.dialect = asm.Dialect{
		Arch: "sparc",
		Syntax: asm.Syntax{
			CommentChars: []string{"!"},
			LabelSuffix:  ":",
		},
		Decode: decode,
	}
	return t
}

// Name implements target.Toolchain.
func (t *Toolchain) Name() string { return "sparc" }

// CompileC implements target.Toolchain.
func (t *Toolchain) CompileC(src string) (string, error) { return compileC(src) }

// Assemble implements target.Toolchain.
func (t *Toolchain) Assemble(text string) (*asm.Unit, error) { return t.dialect.ParseUnit(text) }

// Link implements target.Toolchain.
func (t *Toolchain) Link(units []*asm.Unit) (*asm.Image, error) {
	img, err := asm.Link("sparc", 4, units)
	if err != nil {
		return nil, err
	}
	if err := img.CheckUndefined(); err != nil {
		return nil, err
	}
	return img, nil
}

// registers is the SPARC register file: globals, outs, locals, and the two
// frame registers. %g0 reads as zero.
var registers = asm.NewRegisters(slices.Concat(
	asm.Numbered("%g", 8), asm.Numbered("%o", 8), asm.Numbered("%l", 8),
	[]string{"%fp", "%sp"})...)

func errf(line int, format string, args ...interface{}) error {
	return asm.Errf("sparc", line, format, args...)
}

func regOperand(line int, s string) (asm.Arg, error) {
	if !registers.Has(s) {
		return asm.Arg{}, errf(line, "unknown register %q", s)
	}
	return registers.Arg(s), nil
}

// memOperand decodes a bracketed memory operand: [%reg], [%reg+disp], or
// [%reg-disp].
func memOperand(line int, s string) (asm.Arg, error) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return asm.Arg{}, errf(line, "memory operand %q needs brackets", s)
	}
	inner := s[1 : len(s)-1]
	base := inner
	disp := int64(0)
	if i := strings.IndexAny(inner[1:], "+-"); i >= 0 {
		base = inner[:i+1]
		v, ok := asm.ParseInt(inner[i+1:])
		if !ok {
			return asm.Arg{}, errf(line, "bad displacement in %q", s)
		}
		disp = v
	}
	if !registers.Has(base) {
		return asm.Arg{}, errf(line, "bad base register in %q", s)
	}
	return registers.Base(base, disp, s), nil
}

// regOrImm13 decodes the second source of a register operation: a register
// or a 13-bit signed immediate.
func regOrImm13(line int, s string) (asm.Arg, error) {
	if registers.Has(s) {
		return registers.Arg(s), nil
	}
	if v, ok := asm.ParseInt(s); ok {
		if v < -4096 || v > 4095 {
			return asm.Arg{}, errf(line, "immediate %d out of 13-bit range", v)
		}
		return asm.Arg{Kind: asm.Imm, Imm: v, Raw: s}, nil
	}
	return asm.Arg{}, errf(line, "bad operand %q", s)
}

func labelOperand(line int, s string) (asm.Arg, error) {
	if _, ok := asm.ParseInt(s); ok {
		return asm.Arg{}, errf(line, "numeric branch target %q", s)
	}
	if s == "" || !asm.DefaultValidLabel(s) {
		return asm.Arg{}, errf(line, "bad branch target %q", s)
	}
	return asm.Arg{Kind: asm.Sym, Sym: s, Raw: s}, nil
}

var condBranches = map[string]bool{
	"be": true, "bne": true, "bl": true, "ble": true, "bg": true, "bge": true,
}

var regOps = map[string]bool{
	"add": true, "sub": true, "and": true, "or": true, "xor": true,
	"xnor": true, "sll": true, "sra": true,
}

// decode validates one SPARC instruction line.
func decode(ln asm.Line) (asm.Instr, error) {
	ins := asm.Instr{Op: ln.Op, Line: ln.Num}
	want := func(n int) error {
		if len(ln.Args) != n {
			return errf(ln.Num, "%s takes %d operands, got %d", ln.Op, n, len(ln.Args))
		}
		return nil
	}
	switch {
	case regOps[ln.Op]:
		if err := want(3); err != nil {
			return ins, err
		}
		rs1, err := regOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		rs2, err := regOrImm13(ln.Num, ln.Args[1])
		if err != nil {
			return ins, err
		}
		rd, err := regOperand(ln.Num, ln.Args[2])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{rs1, rs2, rd}
	case ln.Op == "ld":
		if err := want(2); err != nil {
			return ins, err
		}
		m, err := memOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		rd, err := regOperand(ln.Num, ln.Args[1])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{m, rd}
	case ln.Op == "st":
		if err := want(2); err != nil {
			return ins, err
		}
		rs, err := regOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		m, err := memOperand(ln.Num, ln.Args[1])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{rs, m}
	case ln.Op == "set":
		if err := want(2); err != nil {
			return ins, err
		}
		var a asm.Arg
		if v, ok := asm.ParseInt(ln.Args[0]); ok {
			a = asm.Arg{Kind: asm.Imm, Imm: v, Raw: ln.Args[0]}
		} else if asm.DefaultValidLabel(ln.Args[0]) {
			a = asm.Arg{Kind: asm.Sym, Sym: ln.Args[0], Raw: ln.Args[0]}
		} else {
			return ins, errf(ln.Num, "bad set source %q", ln.Args[0])
		}
		rd, err := regOperand(ln.Num, ln.Args[1])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{a, rd}
	case ln.Op == "cmp":
		if err := want(2); err != nil {
			return ins, err
		}
		rs1, err := regOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		rs2, err := regOrImm13(ln.Num, ln.Args[1])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{rs1, rs2}
	case ln.Op == "b" || ln.Op == "call" || condBranches[ln.Op]:
		if err := want(1); err != nil {
			return ins, err
		}
		a, err := labelOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{a}
	case ln.Op == "retl" || ln.Op == "nop":
		if err := want(0); err != nil {
			return ins, err
		}
	default:
		return ins, errf(ln.Num, "unknown opcode %q", ln.Op)
	}
	return ins, nil
}
