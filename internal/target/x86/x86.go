// Package x86 simulates an i386-class toolchain: AT&T syntax (src, dst
// operand order, % register prefix, $ literal prefix, # comments), a
// two-address instruction set with implicit-operand division (cltd/idivl),
// and a stack-based calling convention.
package x86

import (
	"srcg/internal/asm"
)

// Toolchain is the simulated x86 cc/as/ld/run bundle.
type Toolchain struct {
	dialect asm.Dialect
}

// New returns the simulated x86 toolchain.
func New() *Toolchain {
	t := &Toolchain{}
	t.dialect = asm.Dialect{
		Arch: "x86",
		Syntax: asm.Syntax{
			CommentChars: []string{"#"},
			LabelSuffix:  ":",
		},
		Decode: decode,
	}
	return t
}

// Name implements target.Toolchain.
func (t *Toolchain) Name() string { return "x86" }

// CompileC implements target.Toolchain.
func (t *Toolchain) CompileC(src string) (string, error) { return compileC(src) }

// Assemble implements target.Toolchain.
func (t *Toolchain) Assemble(text string) (*asm.Unit, error) { return t.dialect.ParseUnit(text) }

// Link implements target.Toolchain.
func (t *Toolchain) Link(units []*asm.Unit) (*asm.Image, error) {
	img, err := asm.Link("x86", 4, units)
	if err != nil {
		return nil, err
	}
	if err := img.CheckUndefined(); err != nil {
		return nil, err
	}
	return img, nil
}

// registers is the flat i386 register file the assembler accepts.
var registers = asm.NewRegisters(
	"%eax", "%ebx", "%ecx", "%edx", "%esi", "%edi", "%ebp", "%esp")

func errf(line int, format string, args ...interface{}) error {
	return asm.Errf("x86", line, format, args...)
}

// dataOperand decodes an operand of a data-moving instruction: $imm, $sym,
// %reg, disp(%reg), (%reg), or a bare symbol (absolute memory reference).
// Bare integers are rejected — AT&T immediates always carry '$'.
func dataOperand(line int, s string) (asm.Arg, error) {
	if s == "" {
		return asm.Arg{}, errf(line, "empty operand")
	}
	if s[0] == '$' {
		rest := s[1:]
		if v, ok := asm.ParseInt(rest); ok {
			return asm.Arg{Kind: asm.Imm, Imm: v, Raw: s}, nil
		}
		if asm.DefaultValidLabel(rest) {
			return asm.Arg{Kind: asm.Sym, Sym: rest, Raw: s}, nil
		}
		return asm.Arg{}, errf(line, "bad immediate %q", s)
	}
	if s[0] == '%' {
		if !registers.Has(s) {
			return asm.Arg{}, errf(line, "unknown register %q", s)
		}
		return registers.Arg(s), nil
	}
	if i := indexByte(s, '('); i >= 0 {
		if s[len(s)-1] != ')' {
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
		return asm.Arg{}, errf(line, "bare integer operand %q (immediates need $)", s)
	}
	if asm.DefaultValidLabel(s) {
		return asm.Arg{Kind: asm.Mem, Sym: s, Raw: s}, nil
	}
	return asm.Arg{}, errf(line, "bad operand %q", s)
}

// labelOperand decodes a branch/call target: a non-numeric symbol.
func labelOperand(line int, s string) (asm.Arg, error) {
	if _, ok := asm.ParseInt(s); ok {
		return asm.Arg{}, errf(line, "numeric branch target %q", s)
	}
	if !asm.DefaultValidLabel(s) || s == "" || s[0] == '%' || s[0] == '$' {
		return asm.Arg{}, errf(line, "bad branch target %q", s)
	}
	return asm.Arg{Kind: asm.Sym, Sym: s, Raw: s}, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

var condBranches = map[string]bool{
	"je": true, "jne": true, "jl": true, "jle": true, "jg": true, "jge": true,
}

// decode validates one x86 instruction line.
func decode(ln asm.Line) (asm.Instr, error) {
	ins := asm.Instr{Op: ln.Op, Line: ln.Num}
	data := func(i int) (asm.Arg, error) { return dataOperand(ln.Num, ln.Args[i]) }
	want := func(n int) error {
		if len(ln.Args) != n {
			return errf(ln.Num, "%s takes %d operands, got %d", ln.Op, n, len(ln.Args))
		}
		return nil
	}
	switch ln.Op {
	case "movl", "addl", "subl", "imull", "andl", "orl", "xorl", "cmpl":
		if err := want(2); err != nil {
			return ins, err
		}
		src, err := data(0)
		if err != nil {
			return ins, err
		}
		dst, err := data(1)
		if err != nil {
			return ins, err
		}
		if ln.Op != "cmpl" && (dst.Kind == asm.Imm || dst.Kind == asm.Sym) {
			return ins, errf(ln.Num, "%s destination must be a register or memory", ln.Op)
		}
		if ln.Op == "cmpl" && (dst.Kind == asm.Imm || dst.Kind == asm.Sym) {
			return ins, errf(ln.Num, "cmpl second operand must be a register or memory")
		}
		ins.Args = []asm.Arg{src, dst}
	case "sall", "sarl":
		if err := want(2); err != nil {
			return ins, err
		}
		cnt, err := data(0)
		if err != nil {
			return ins, err
		}
		if cnt.Kind != asm.Imm && cnt.Kind != asm.Reg {
			return ins, errf(ln.Num, "%s count must be a register or immediate", ln.Op)
		}
		dst, err := data(1)
		if err != nil {
			return ins, err
		}
		if dst.Kind != asm.Reg {
			return ins, errf(ln.Num, "%s destination must be a register", ln.Op)
		}
		ins.Args = []asm.Arg{cnt, dst}
	case "negl", "notl", "idivl":
		if err := want(1); err != nil {
			return ins, err
		}
		a, err := data(0)
		if err != nil {
			return ins, err
		}
		if a.Kind == asm.Imm || a.Kind == asm.Sym {
			return ins, errf(ln.Num, "%s operand must be a register or memory", ln.Op)
		}
		ins.Args = []asm.Arg{a}
	case "pushl":
		if err := want(1); err != nil {
			return ins, err
		}
		a, err := data(0)
		if err != nil {
			return ins, err
		}
		// $imm, $sym, %reg, and mem with an explicit base are legal; a
		// bare symbol (absolute memory push) is not.
		if a.Kind == asm.Mem && a.Reg == "" {
			return ins, errf(ln.Num, "pushl cannot take a bare symbol")
		}
		ins.Args = []asm.Arg{a}
	case "popl":
		if err := want(1); err != nil {
			return ins, err
		}
		a, err := data(0)
		if err != nil {
			return ins, err
		}
		if a.Kind != asm.Reg {
			return ins, errf(ln.Num, "popl needs a register")
		}
		ins.Args = []asm.Arg{a}
	case "leal":
		if err := want(2); err != nil {
			return ins, err
		}
		src, err := data(0)
		if err != nil {
			return ins, err
		}
		if src.Kind != asm.Mem {
			return ins, errf(ln.Num, "leal source must be a memory operand")
		}
		dst, err := data(1)
		if err != nil {
			return ins, err
		}
		if dst.Kind != asm.Reg {
			return ins, errf(ln.Num, "leal destination must be a register")
		}
		ins.Args = []asm.Arg{src, dst}
	case "cltd", "ret":
		if err := want(0); err != nil {
			return ins, err
		}
	case "jmp", "call":
		if err := want(1); err != nil {
			return ins, err
		}
		a, err := labelOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{a}
	default:
		if condBranches[ln.Op] {
			if err := want(1); err != nil {
				return ins, err
			}
			a, err := labelOperand(ln.Num, ln.Args[0])
			if err != nil {
				return ins, err
			}
			ins.Args = []asm.Arg{a}
			return ins, nil
		}
		return ins, errf(ln.Num, "unknown opcode %q", ln.Op)
	}
	return ins, nil
}
