// Package asm models assembly programs at the level the simulated
// toolchains share: text lines split into label/opcode/arguments, decoded
// operands, assembled units, and linked executable images. Each simulated
// architecture supplies its own surface syntax and validation on top.
package asm

import (
	"fmt"
	"strconv"
	"strings"
)

// Line is one raw assembly source line split into its parts.
type Line struct {
	Num     int    // 1-based source line number
	Label   string // label defined on this line ("" if none)
	Op      string // opcode or directive ("" for label-only/blank lines)
	Args    []string
	IsDir   bool   // opcode starts with '.' (directive)
	Raw     string // original text
	Comment string
}

// Syntax holds the surface conventions a splitter needs. All five simulated
// assemblers are variants of the "standard notation" the paper describes
// (§3.1): one instruction per line, optional label, comma-separated args,
// line comments.
type Syntax struct {
	CommentChars []string // comment-to-end-of-line introducers, e.g. "#", "!"
	LabelSuffix  string   // usually ":"
}

// SplitLine splits one raw line according to the syntax. A nil error with a
// zero-valued Line (Op=="" and Label=="") means the line was blank.
func (s Syntax) SplitLine(num int, raw string) (Line, error) {
	ln := Line{Num: num, Raw: raw}
	text := raw
	for _, cc := range s.CommentChars {
		if i := strings.Index(text, cc); i >= 0 {
			ln.Comment = strings.TrimSpace(text[i+len(cc):])
			text = text[:i]
		}
	}
	text = strings.TrimSpace(text)
	if text == "" {
		return ln, nil
	}
	// Optional label.
	if i := strings.Index(text, s.LabelSuffix); i >= 0 {
		candidate := strings.TrimSpace(text[:i])
		if candidate != "" && isLabelToken(candidate) {
			ln.Label = candidate
			text = strings.TrimSpace(text[i+len(s.LabelSuffix):])
		}
	}
	if text == "" {
		return ln, nil
	}
	// Opcode is the first whitespace-delimited word; the rest are
	// comma-separated arguments.
	op := text
	rest := ""
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		op, rest = text[:i], strings.TrimSpace(text[i+1:])
	}
	ln.Op = op
	ln.IsDir = strings.HasPrefix(op, ".")
	if rest != "" {
		ln.Args = make([]string, strings.Count(rest, ",")+1)
		for i := range ln.Args {
			a, tail, _ := strings.Cut(rest, ",")
			ln.Args[i], rest = strings.TrimSpace(a), tail
		}
	}
	return ln, nil
}

// isLabelToken reports whether text can be a label: a single token with no
// spaces (so we don't mistake "mov a, b" for a weird label).
func isLabelToken(text string) bool {
	return !strings.ContainsAny(text, " \t,")
}

// ArgKind classifies decoded operands. It is a byte so that Arg has room
// for a register slot without growing.
type ArgKind uint8

// Operand kinds.
const (
	Reg ArgKind = iota // register
	Imm                // integer immediate
	Mem                // base register + displacement
	Sym                // symbolic reference: label or data symbol
)

func (k ArgKind) String() string {
	switch k {
	case Reg:
		return "reg"
	case Imm:
		return "imm"
	case Mem:
		return "mem"
	case Sym:
		return "sym"
	}
	return fmt.Sprintf("ArgKind(%d)", int(k))
}

// Arg is one decoded operand.
type Arg struct {
	Kind ArgKind
	Slot uint8  // Reg, Mem with a base: the register's slot in the register file
	Reg  string // Reg: register name; Mem: base register
	Imm  int64  // Imm value or Mem displacement
	Sym  string // Sym name; also Mem absolute symbol when Reg==""
	Raw  string // original text
}

func (a Arg) String() string {
	if a.Raw != "" {
		return a.Raw
	}
	switch a.Kind {
	case Reg:
		return a.Reg
	case Imm:
		return fmt.Sprintf("%d", a.Imm)
	case Mem:
		return fmt.Sprintf("%d(%s)", a.Imm, a.Reg)
	default:
		return a.Sym
	}
}

// Registers maps each register name a target's assembler accepts to its
// slot in the simulated register file, one slot per name: aliases such as
// Alpha $sp and $30 are distinct registers to the machine.
type Registers map[string]uint8

// NewRegisters numbers names in order.
func NewRegisters(names ...string) Registers {
	r := make(Registers, len(names))
	for i, n := range names {
		r[n] = uint8(i)
	}
	return r
}

// Numbered returns the register names prefix0 .. prefix<n-1>.
func Numbered(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = prefix + strconv.Itoa(i)
	}
	return names
}

// Has reports whether name is a register.
func (r Registers) Has(name string) bool {
	_, ok := r[name]
	return ok
}

// Arg returns the register operand for name, which must be a register.
func (r Registers) Arg(name string) Arg {
	return Arg{Kind: Reg, Slot: r[name], Reg: name, Raw: name}
}

// Base returns the base-register memory operand disp(base).
func (r Registers) Base(base string, disp int64, raw string) Arg {
	return Arg{Kind: Mem, Slot: r[base], Reg: base, Imm: disp, Raw: raw}
}

// Instr is one decoded machine instruction.
type Instr struct {
	Label string // label defined at this instruction ("" if none)
	Op    string
	Args  []Arg
	Line  int // source line, for error reporting
}

func (i Instr) String() string {
	var sb strings.Builder
	if i.Label != "" {
		sb.WriteString(i.Label + ": ")
	}
	sb.WriteString(i.Op)
	for j, a := range i.Args {
		if j == 0 {
			sb.WriteString(" ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	return sb.String()
}

// Unit is one assembled translation unit (the output of `as`). A unit is
// immutable once assembled: links share it, concurrently too.
type Unit struct {
	Arch    string
	Instrs  []Instr
	Globals []string          // exported label/data names (.globl)
	Comm    []string          // zero-initialized data symbols (.comm), word-sized
	Strings map[string]string // label -> bytes (.asciz)
	Aliases map[string]string // extra labels sharing an instruction ("" target = end)

	link *linkInfo // set by ParseUnit; nil for units built by hand
}

// AsmError is an assembly diagnostic (the paper only needs accept/reject,
// but good diagnostics make the simulated toolchains debuggable).
type AsmError struct {
	Arch string
	Line int
	Msg  string
}

func (e *AsmError) Error() string { return fmt.Sprintf("%s-as:%d: %s", e.Arch, e.Line, e.Msg) }

// Errf builds an AsmError.
func Errf(arch string, line int, format string, args ...any) error {
	return &AsmError{Arch: arch, Line: line, Msg: fmt.Sprintf(format, args...)}
}
