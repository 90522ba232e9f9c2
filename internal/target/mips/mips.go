// Package mips simulates a MIPS R3000-class toolchain: "#" comments,
// dollar-numbered registers, three-address register operations, li/la
// constant synthesis, absolute-symbol memory operands, and the hidden
// hi/lo registers behind mult/div (read back with mflo/mfhi).
package mips

import (
	"strings"

	"srcg/internal/asm"
)

// Toolchain is the simulated MIPS cc/as/ld/run bundle.
type Toolchain struct {
	dialect asm.Dialect
}

// New returns the simulated MIPS toolchain.
func New() *Toolchain {
	t := &Toolchain{}
	t.dialect = asm.Dialect{
		Arch: "mips",
		Syntax: asm.Syntax{
			CommentChars: []string{"#"},
			LabelSuffix:  ":",
		},
		Decode: decode,
	}
	return t
}

// Name implements target.Toolchain.
func (t *Toolchain) Name() string { return "mips" }

// CompileC implements target.Toolchain.
func (t *Toolchain) CompileC(src string) (string, error) { return compileC(src) }

// Assemble implements target.Toolchain.
func (t *Toolchain) Assemble(text string) (*asm.Unit, error) { return t.dialect.ParseUnit(text) }

// Link implements target.Toolchain.
func (t *Toolchain) Link(units []*asm.Unit) (*asm.Image, error) {
	img, err := asm.Link("mips", 4, units)
	if err != nil {
		return nil, err
	}
	if err := img.CheckUndefined(); err != nil {
		return nil, err
	}
	return img, nil
}

// registers is the MIPS register file: $0..$31 plus the $sp/$fp aliases.
// $0 reads as zero.
var registers = asm.NewRegisters(append(asm.Numbered("$", 32), "$sp", "$fp")...)

func errf(line int, format string, args ...interface{}) error {
	return asm.Errf("mips", line, format, args...)
}

func regOperand(line int, s string) (asm.Arg, error) {
	if !registers.Has(s) {
		return asm.Arg{}, errf(line, "unknown register %q", s)
	}
	return registers.Arg(s), nil
}

// memOperand decodes disp($reg), ($reg), or a bare non-numeric symbol
// (absolute reference). Bare integers are rejected.
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

// regOrImm decodes the third source of addu/subu: a register or a (full
// range) immediate.
func regOrImm(line int, s string) (asm.Arg, error) {
	if registers.Has(s) {
		return registers.Arg(s), nil
	}
	if v, ok := asm.ParseInt(s); ok {
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

var regOps = map[string]bool{
	"add": true, "and": true, "or": true, "xor": true, "nor": true,
	"sllv": true, "srav": true,
}

var immOps = map[string]bool{"addu": true, "subu": true}

var branches = map[string]bool{
	"beq": true, "bne": true, "blt": true, "ble": true, "bgt": true, "bge": true,
}

// decode validates one MIPS instruction line.
func decode(ln asm.Line) (asm.Instr, error) {
	ins := asm.Instr{Op: ln.Op, Line: ln.Num}
	want := func(n int) error {
		if len(ln.Args) != n {
			return errf(ln.Num, "%s takes %d operands, got %d", ln.Op, n, len(ln.Args))
		}
		return nil
	}
	reg := func(i int) (asm.Arg, error) { return regOperand(ln.Num, ln.Args[i]) }
	switch {
	case regOps[ln.Op] || immOps[ln.Op]:
		if err := want(3); err != nil {
			return ins, err
		}
		rd, err := reg(0)
		if err != nil {
			return ins, err
		}
		rs, err := reg(1)
		if err != nil {
			return ins, err
		}
		var rt asm.Arg
		if immOps[ln.Op] {
			rt, err = regOrImm(ln.Num, ln.Args[2])
		} else {
			rt, err = reg(2)
		}
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{rd, rs, rt}
	case ln.Op == "lw" || ln.Op == "sw":
		if err := want(2); err != nil {
			return ins, err
		}
		r, err := reg(0)
		if err != nil {
			return ins, err
		}
		m, err := memOperand(ln.Num, ln.Args[1])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{r, m}
	case ln.Op == "li":
		if err := want(2); err != nil {
			return ins, err
		}
		rd, err := reg(0)
		if err != nil {
			return ins, err
		}
		v, ok := asm.ParseInt(ln.Args[1])
		if !ok {
			return ins, errf(ln.Num, "bad immediate %q", ln.Args[1])
		}
		ins.Args = []asm.Arg{rd, {Kind: asm.Imm, Imm: v, Raw: ln.Args[1]}}
	case ln.Op == "la":
		if err := want(2); err != nil {
			return ins, err
		}
		rd, err := reg(0)
		if err != nil {
			return ins, err
		}
		if _, isNum := asm.ParseInt(ln.Args[1]); isNum || !asm.DefaultValidLabel(ln.Args[1]) {
			return ins, errf(ln.Num, "bad address %q", ln.Args[1])
		}
		ins.Args = []asm.Arg{rd, {Kind: asm.Sym, Sym: ln.Args[1], Raw: ln.Args[1]}}
	case ln.Op == "mult" || ln.Op == "div":
		if err := want(2); err != nil {
			return ins, err
		}
		rs, err := reg(0)
		if err != nil {
			return ins, err
		}
		rt, err := reg(1)
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{rs, rt}
	case ln.Op == "mflo" || ln.Op == "mfhi" || ln.Op == "jr":
		if err := want(1); err != nil {
			return ins, err
		}
		r, err := reg(0)
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{r}
	case branches[ln.Op]:
		if err := want(3); err != nil {
			return ins, err
		}
		rs, err := reg(0)
		if err != nil {
			return ins, err
		}
		rt, err := reg(1)
		if err != nil {
			return ins, err
		}
		lab, err := labelOperand(ln.Num, ln.Args[2])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{rs, rt, lab}
	case ln.Op == "j" || ln.Op == "jal":
		if err := want(1); err != nil {
			return ins, err
		}
		lab, err := labelOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{lab}
	default:
		return ins, errf(ln.Num, "unknown opcode %q", ln.Op)
	}
	return ins, nil
}
