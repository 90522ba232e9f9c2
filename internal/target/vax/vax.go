// Package vax simulates a VAX-class toolchain: "#" comments, $-prefixed
// literals, memory-to-memory three-operand instructions (addl3 can take
// all its operands from the frame), condition codes set by cmpl/tstl, and
// a calls/ret convention that maintains the argument pointer.
package vax

import (
	"strings"

	"srcg/internal/asm"
)

// Toolchain is the simulated VAX cc/as/ld/run bundle.
type Toolchain struct {
	dialect asm.Dialect
}

// New returns the simulated VAX toolchain.
func New() *Toolchain {
	t := &Toolchain{}
	t.dialect = asm.Dialect{
		Arch: "vax",
		Syntax: asm.Syntax{
			CommentChars: []string{"#"},
			LabelSuffix:  ":",
		},
		Decode: decode,
	}
	return t
}

// Name implements target.Toolchain.
func (t *Toolchain) Name() string { return "vax" }

// CompileC implements target.Toolchain.
func (t *Toolchain) CompileC(src string) (string, error) { return compileC(src) }

// Assemble implements target.Toolchain.
func (t *Toolchain) Assemble(text string) (*asm.Unit, error) { return t.dialect.ParseUnit(text) }

// Link implements target.Toolchain.
func (t *Toolchain) Link(units []*asm.Unit) (*asm.Image, error) {
	img, err := asm.Link("vax", 4, units)
	if err != nil {
		return nil, err
	}
	if err := img.CheckUndefined(); err != nil {
		return nil, err
	}
	return img, nil
}

// registers is the VAX register file: r0..r11 plus ap, fp, sp.
var registers = asm.NewRegisters(append(asm.Numbered("r", 12), "ap", "fp", "sp")...)

func errf(line int, format string, args ...interface{}) error {
	return asm.Errf("vax", line, format, args...)
}

// looksLikeReg reports whether s is register-shaped (r followed by
// digits): such tokens are never symbols, so r12 and up are rejected
// rather than read as absolute memory references.
func looksLikeReg(s string) bool {
	if len(s) < 2 || s[0] != 'r' {
		return false
	}
	for _, ch := range s[1:] {
		if ch < '0' || ch > '9' {
			return false
		}
	}
	return true
}

// dataOperand decodes $imm, $sym, a register, disp(reg), (reg), or a bare
// symbol (absolute memory reference). Bare integers are rejected.
func dataOperand(line int, s string) (asm.Arg, error) {
	if s == "" {
		return asm.Arg{}, errf(line, "empty operand")
	}
	if s[0] == '$' {
		rest := s[1:]
		if v, ok := asm.ParseInt(rest); ok {
			return asm.Arg{Kind: asm.Imm, Imm: v, Raw: s}, nil
		}
		if asm.DefaultValidLabel(rest) && !looksLikeReg(rest) {
			return asm.Arg{Kind: asm.Sym, Sym: rest, Raw: s}, nil
		}
		return asm.Arg{}, errf(line, "bad immediate %q", s)
	}
	if registers.Has(s) {
		return registers.Arg(s), nil
	}
	if i := strings.IndexByte(s, '('); i >= 0 {
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
	if looksLikeReg(s) {
		return asm.Arg{}, errf(line, "unknown register %q", s)
	}
	if asm.DefaultValidLabel(s) {
		return asm.Arg{Kind: asm.Mem, Sym: s, Raw: s}, nil
	}
	return asm.Arg{}, errf(line, "bad operand %q", s)
}

func labelOperand(line int, s string) (asm.Arg, error) {
	if _, ok := asm.ParseInt(s); ok {
		return asm.Arg{}, errf(line, "numeric branch target %q", s)
	}
	if s == "" || !asm.DefaultValidLabel(s) || s[0] == '$' || looksLikeReg(s) {
		return asm.Arg{}, errf(line, "bad branch target %q", s)
	}
	return asm.Arg{Kind: asm.Sym, Sym: s, Raw: s}, nil
}

func writable(a asm.Arg) bool { return a.Kind == asm.Reg || a.Kind == asm.Mem }

var threeOps = map[string]bool{
	"addl3": true, "subl3": true, "mull3": true, "divl3": true,
	"bisl3": true, "xorl3": true, "bicl3": true, "ashl": true,
}

var twoOps = map[string]bool{
	"movl": true, "moval": true, "addl2": true, "subl2": true,
	"mcoml": true, "mnegl": true, "cmpl": true,
}

var condBranches = map[string]bool{
	"jeql": true, "jneq": true, "jlss": true, "jleq": true, "jgtr": true, "jgeq": true,
}

// decode validates one VAX instruction line.
func decode(ln asm.Line) (asm.Instr, error) {
	ins := asm.Instr{Op: ln.Op, Line: ln.Num}
	want := func(n int) error {
		if len(ln.Args) != n {
			return errf(ln.Num, "%s takes %d operands, got %d", ln.Op, n, len(ln.Args))
		}
		return nil
	}
	data := func(i int) (asm.Arg, error) { return dataOperand(ln.Num, ln.Args[i]) }
	switch {
	case threeOps[ln.Op]:
		if err := want(3); err != nil {
			return ins, err
		}
		s1, err := data(0)
		if err != nil {
			return ins, err
		}
		s2, err := data(1)
		if err != nil {
			return ins, err
		}
		dst, err := data(2)
		if err != nil {
			return ins, err
		}
		if !writable(dst) {
			return ins, errf(ln.Num, "%s destination must be a register or memory", ln.Op)
		}
		ins.Args = []asm.Arg{s1, s2, dst}
	case twoOps[ln.Op]:
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
		if ln.Op != "cmpl" && !writable(dst) {
			return ins, errf(ln.Num, "%s destination must be a register or memory", ln.Op)
		}
		if ln.Op == "moval" && src.Kind != asm.Mem {
			return ins, errf(ln.Num, "moval source must be a memory operand")
		}
		ins.Args = []asm.Arg{src, dst}
	case ln.Op == "pushl" || ln.Op == "tstl":
		if err := want(1); err != nil {
			return ins, err
		}
		a, err := data(0)
		if err != nil {
			return ins, err
		}
		if ln.Op == "pushl" && a.Kind == asm.Mem && a.Reg == "" {
			return ins, errf(ln.Num, "pushl cannot take a bare symbol")
		}
		ins.Args = []asm.Arg{a}
	case ln.Op == "jbr" || condBranches[ln.Op]:
		if err := want(1); err != nil {
			return ins, err
		}
		lab, err := labelOperand(ln.Num, ln.Args[0])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{lab}
	case ln.Op == "calls":
		if err := want(2); err != nil {
			return ins, err
		}
		n, err := data(0)
		if err != nil {
			return ins, err
		}
		if n.Kind != asm.Imm {
			return ins, errf(ln.Num, "calls argument count must be an immediate")
		}
		lab, err := labelOperand(ln.Num, ln.Args[1])
		if err != nil {
			return ins, err
		}
		ins.Args = []asm.Arg{n, lab}
	case ln.Op == "ret":
		if err := want(0); err != nil {
			return ins, err
		}
	default:
		return ins, errf(ln.Num, "unknown opcode %q", ln.Op)
	}
	return ins, nil
}
