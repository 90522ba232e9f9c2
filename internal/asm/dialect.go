package asm

import (
	"slices"
	"strings"
	"sync"
)

// Dialect bundles what a simulated assembler needs beyond operand decoding:
// the surface syntax and an instruction decoder. Directive handling
// (.text/.globl/.comm/.asciz/...) is shared, since all five simulated
// toolchains use the same Unix-style directives.
type Dialect struct {
	Arch   string
	Syntax Syntax
	// Decode validates and decodes one instruction line (Op != "", not a
	// directive). It must reject unknown opcodes and illegal operands —
	// the discovery unit probes syntax by feeding the assembler garbage.
	Decode func(line Line) (Instr, error)
	// ValidLabel reports whether a token may be a label. Defaults to
	// DefaultValidLabel when nil.
	ValidLabel func(string) bool
}

// DefaultValidLabel accepts C-identifier-like labels plus '.' and '$'.
func DefaultValidLabel(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == '.' || c == '$' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ParseUnit assembles source text into a Unit using the dialect. Multiple
// labels may land on the same instruction (mutations that delete an
// instruction between two labels produce this); extras are recorded as
// aliases. The unit comes back link-ready: what Link needs to know about
// its names is computed here, once, instead of on every link.
func (d Dialect) ParseUnit(text string) (*Unit, error) {
	buf := instrScratch.Get().(*[]Instr)
	u, instrs, err := d.parseUnit(text, (*buf)[:0])
	clear(instrs) // drop references into this text
	*buf = instrs[:0]
	instrScratch.Put(buf)
	return u, err
}

// instrScratch recycles the buffer ParseUnit decodes into, so each unit's
// instructions are allocated once, at their final size.
var instrScratch = sync.Pool{New: func() any { return new([]Instr) }}

func (d Dialect) parseUnit(text string, instrs []Instr) (*Unit, []Instr, error) {
	u := &Unit{Arch: d.Arch, Strings: map[string]string{}, Aliases: map[string]string{}}
	valid := d.ValidLabel
	if valid == nil {
		valid = DefaultValidLabel
	}
	var pending []string
	attach := func(ins Instr) Instr {
		if len(pending) > 0 {
			ins.Label = pending[0]
			for _, extra := range pending[1:] {
				u.Aliases[extra] = pending[0]
			}
			pending = pending[:0]
		}
		return ins
	}
	for num, rest, more := 1, text, true; more; num++ {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		line, err := d.Syntax.SplitLine(num, raw)
		if err != nil {
			return nil, instrs, err
		}
		if line.Label != "" {
			if !valid(line.Label) {
				return nil, instrs, Errf(d.Arch, line.Num, "bad label %q", line.Label)
			}
		}
		if line.Op == "" {
			if line.Label != "" {
				pending = append(pending, line.Label)
			}
			continue
		}
		if line.IsDir {
			if err := d.directive(u, line); err != nil {
				return nil, instrs, err
			}
			continue
		}
		if line.Label != "" {
			pending = append(pending, line.Label)
		}
		ins, err := d.Decode(line)
		if err != nil {
			return nil, instrs, err
		}
		instrs = append(instrs, attach(ins))
	}
	for _, l := range pending {
		// Trailing labels reference the end of the stream; record them as
		// aliases of a synthetic terminator so links still resolve.
		u.Aliases[l] = endLabel
	}
	if len(instrs) > 0 {
		u.Instrs = slices.Clone(instrs)
	}
	u.link = newLinkInfo(u)
	return u, instrs, nil
}

// endLabel marks "one past the last instruction" for trailing labels.
const endLabel = "$end"

func (d Dialect) directive(u *Unit, line Line) error {
	switch line.Op {
	case ".text", ".data", ".align", ".word", ".ent", ".end", ".frame", ".set":
		return nil
	case ".globl", ".global":
		if len(line.Args) != 1 {
			return Errf(d.Arch, line.Num, "%s needs one symbol", line.Op)
		}
		u.Globals = append(u.Globals, line.Args[0])
		return nil
	case ".comm":
		if len(line.Args) < 1 {
			return Errf(d.Arch, line.Num, ".comm needs a symbol")
		}
		u.Comm = append(u.Comm, line.Args[0])
		u.Globals = append(u.Globals, line.Args[0])
		return nil
	case ".asciz", ".string", ".ascii":
		return DirString(u, d.Arch, line)
	default:
		return Errf(d.Arch, line.Num, "unknown directive %s", line.Op)
	}
}
