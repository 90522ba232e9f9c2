// Package alpha simulates an Alpha-class toolchain: "#" comments,
// dollar-numbered registers, operate-format instructions whose second
// source is a register or an 8-bit literal (0..255), ldil constant
// synthesis, compare-into-register conditionals, and jsr/ret linkage
// through $26.
package alpha

import (
	"strings"

	"srcg/internal/asm"
)

// Toolchain is the simulated Alpha cc/as/ld/run bundle.
type Toolchain struct {
	dialect asm.Dialect
}

// New returns the simulated Alpha toolchain.
func New() *Toolchain {
	t := &Toolchain{}
	t.dialect = asm.Dialect{
		Arch: "alpha",
		Syntax: asm.Syntax{
			CommentChars: []string{"#"},
			LabelSuffix:  ":",
		},
		Decode: decode,
	}
	return t
}

// Name implements target.Toolchain.
func (t *Toolchain) Name() string { return "alpha" }

// CompileC implements target.Toolchain.
func (t *Toolchain) CompileC(src string) (string, error) { return compileC(src) }

// Assemble implements target.Toolchain.
func (t *Toolchain) Assemble(text string) (*asm.Unit, error) { return t.dialect.ParseUnit(text) }

// Link implements target.Toolchain.
func (t *Toolchain) Link(units []*asm.Unit) (*asm.Image, error) {
	img, err := asm.Link("alpha", 4, units)
	if err != nil {
		return nil, err
	}
	if err := img.CheckUndefined(); err != nil {
		return nil, err
	}
	return img, nil
}

// registers is the Alpha register file: $0..$31 plus the $sp/$fp aliases.
// $31 reads as zero.
var registers = asm.NewRegisters(append(asm.Numbered("$", 32), "$sp", "$fp")...)

func errf(line int, format string, args ...interface{}) error {
	return asm.Errf("alpha", line, format, args...)
}

func regOperand(line int, s string) (asm.Arg, error) {
	if !registers.Has(s) {
		return asm.Arg{}, errf(line, "unknown register %q", s)
	}
	return registers.Arg(s), nil
}

// memOperand decodes disp($reg), ($reg), or a bare non-numeric symbol.
func memOperand(line int, s string) (asm.Arg, error) {
	if i := strings.IndexByte(s, '('); i >= 0 {
		if len(s) == 0 || s[len(s)-1] != ')' {
			return asm.Arg{}, errf(line, "bad memory operand %q", s)
		}
		disp := int64(0)
		if i > 0 {
			v, ok := asm.ParseInt(s[:i])
			if !ok {
				return asm.Arg{}, errf(line, "bad displacement in %q", s)
			}
			disp = v
		}
		base := s[i+1 : len(s)-1]
		if !registers.Has(base) {
			return asm.Arg{}, errf(line, "bad base register in %q", s)
		}
		return registers.Base(base, disp, s), nil
	}
	if _, ok := asm.ParseInt(s); ok {
		return asm.Arg{}, errf(line, "bare integer memory operand %q", s)
	}
	if s != "" && asm.DefaultValidLabel(s) && s[0] != '$' {
		return asm.Arg{Kind: asm.Mem, Sym: s, Raw: s}, nil
	}
	return asm.Arg{}, errf(line, "bad memory operand %q", s)
}

// regOrLit8 decodes the second source of an operate-format instruction: a
// register or a literal in 0..255.
func regOrLit8(line int, s string) (asm.Arg, error) {
	if registers.Has(s) {
		return registers.Arg(s), nil
	}
	if v, ok := asm.ParseInt(s); ok {
		if v < 0 || v > 255 {
			return asm.Arg{}, errf(line, "operate literal %d out of range 0..255", v)
		}
		return asm.Arg{Kind: asm.Imm, Imm: v, Raw: s}, nil
	}
	return asm.Arg{}, errf(line, "bad operand %q", s)
}

func labelOperand(line int, s string) (asm.Arg, error) {
	if _, ok := asm.ParseInt(s); ok {
		return asm.Arg{}, errf(line, "numeric branch target %q", s)
	}
	if s == "" || !asm.DefaultValidLabel(s) || s[0] == '$' {
		return asm.Arg{}, errf(line, "bad branch target %q", s)
	}
	return asm.Arg{Kind: asm.Sym, Sym: s, Raw: s}, nil
}

// operate-format instructions: op ra, rb_or_lit, rc.
var operateOps = map[string]bool{
	"addl": true, "subl": true, "mull": true, "divl": true, "reml": true,
	"and": true, "bis": true, "xor": true, "ornot": true, "sll": true, "sra": true,
	"cmpeq": true, "cmplt": true, "cmple": true,
}

// decode validates one Alpha instruction line.
func decode(ln asm.Line) (asm.Instr, error) {
	ins := asm.Instr{Op: ln.Op, Line: ln.Num}
	want := func(n int) error {
		if len(ln.Args) != n {
			return errf(ln.Num, "%s takes %d operands, got %d", ln.Op, n, len(ln.Args))
		}
		return nil
	}
	switch {
	case operateOps[ln.Op]:
		if err := want(3); err != nil {
			return ins, err
		}
		ra, err := regOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		rb, err := regOrLit8(ln.Num, ln.Args[1])
		if err != nil {
			return ins, err
		}
		rc, err := regOperand(ln.Num, ln.Args[2])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{ra, rb, rc}
	case ln.Op == "ldl" || ln.Op == "stl":
		if err := want(2); err != nil {
			return ins, err
		}
		r, err := regOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		m, err := memOperand(ln.Num, ln.Args[1])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{r, m}
	case ln.Op == "lda":
		if err := want(2); err != nil {
			return ins, err
		}
		r, err := regOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		m, err := memOperand(ln.Num, ln.Args[1])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{r, m}
	case ln.Op == "ldil":
		if err := want(2); err != nil {
			return ins, err
		}
		r, err := regOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		v, ok := asm.ParseInt(ln.Args[1])
		if !ok {
			return ins, errf(ln.Num, "bad immediate %q", ln.Args[1])
		}
		ins.Args = []asm.Arg{r, {Kind: asm.Imm, Imm: v, Raw: ln.Args[1]}}
	case ln.Op == "beq" || ln.Op == "bne":
		if err := want(2); err != nil {
			return ins, err
		}
		r, err := regOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		lab, err := labelOperand(ln.Num, ln.Args[1])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{r, lab}
	case ln.Op == "br":
		if err := want(1); err != nil {
			return ins, err
		}
		lab, err := labelOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{lab}
	case ln.Op == "jsr":
		if err := want(2); err != nil {
			return ins, err
		}
		r, err := regOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		lab, err := labelOperand(ln.Num, ln.Args[1])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{r, lab}
	case ln.Op == "ret":
		if err := want(1); err != nil {
			return ins, err
		}
		m, err := memOperand(ln.Num, ln.Args[0])
		if err != nil || m.Reg == "" || m.Imm != 0 {
			return ins, errf(ln.Num, "ret operand must be (reg)")
		}
		ins.Args = []asm.Arg{m}
	default:
		return ins, errf(ln.Num, "unknown opcode %q", ln.Op)
	}
	return ins, nil
}
