package asm

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"srcg/internal/machine"
)

// The reference implementations below are the splitter, parser and linker
// as they were before units carried link metadata and parsing stopped
// splitting whole texts. The tests hold the current code to them: same
// units, same diagnostics on the same lines, same images.

func refSplitLine(s Syntax, num int, raw string) (Line, error) {
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
	op := text
	rest := ""
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		op, rest = text[:i], strings.TrimSpace(text[i+1:])
	}
	ln.Op = op
	ln.IsDir = strings.HasPrefix(op, ".")
	if rest != "" {
		for _, a := range strings.Split(rest, ",") {
			ln.Args = append(ln.Args, strings.TrimSpace(a))
		}
	}
	return ln, nil
}

func refParseUnit(d Dialect, text string) (*Unit, error) {
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
			pending = nil
		}
		return ins
	}
	for num, raw := range strings.Split(text, "\n") {
		line, err := refSplitLine(d.Syntax, num+1, raw)
		if err != nil {
			return nil, err
		}
		if line.Label != "" && !valid(line.Label) {
			return nil, Errf(d.Arch, line.Num, "bad label %q", line.Label)
		}
		if line.Op == "" {
			if line.Label != "" {
				pending = append(pending, line.Label)
			}
			continue
		}
		if line.IsDir {
			if err := d.directive(u, line); err != nil {
				return nil, err
			}
			continue
		}
		if line.Label != "" {
			pending = append(pending, line.Label)
		}
		ins, err := d.Decode(line)
		if err != nil {
			return nil, err
		}
		u.Instrs = append(u.Instrs, attach(ins))
	}
	for _, l := range pending {
		u.Aliases[l] = endLabel
	}
	return u, nil
}

func refLink(arch string, wordSize int, units []*Unit) (*Image, error) {
	img := &Image{Arch: arch, WordSize: wordSize, Labels: map[string]int{}, Symbols: map[string]uint64{}}
	addr := func() uint64 { return machine.DataBase + uint64(len(img.Data)) }
	for ui, u := range units {
		exported := map[string]bool{}
		for _, g := range u.Globals {
			exported[g] = true
		}
		rename := func(name string) string {
			if exported[name] {
				return name
			}
			return fmt.Sprintf("u%d$%s", ui, name)
		}
		defined := map[string]bool{}
		for _, ins := range u.Instrs {
			if ins.Label != "" {
				defined[ins.Label] = true
			}
		}
		for alias := range u.Aliases {
			defined[alias] = true
		}
		for l := range u.Strings {
			defined[l] = true
		}
		for _, c := range u.Comm {
			defined[c] = true
		}
		for _, ins := range u.Instrs {
			ni := ins
			ni.Args = append([]Arg(nil), ins.Args...)
			if ni.Label != "" {
				ni.Label = rename(ni.Label)
				if _, dup := img.Labels[ni.Label]; dup {
					return nil, fmt.Errorf("%s-ld: duplicate label %q", arch, ni.Label)
				}
				img.Labels[ni.Label] = len(img.Instrs)
			}
			for ai, a := range ni.Args {
				if a.Sym != "" && defined[a.Sym] {
					ni.Args[ai].Sym = rename(a.Sym)
					ni.Args[ai].Raw = ""
				}
			}
			img.Instrs = append(img.Instrs, ni)
		}
		var aliases []string
		for a := range u.Aliases {
			aliases = append(aliases, a)
		}
		sort.Strings(aliases)
		for _, a := range aliases {
			canon := u.Aliases[a]
			name := rename(a)
			if _, dup := img.Labels[name]; dup {
				return nil, fmt.Errorf("%s-ld: duplicate label %q", arch, name)
			}
			if canon == endLabel {
				img.Labels[name] = len(img.Instrs)
				continue
			}
			idx, ok := img.Labels[rename(canon)]
			if !ok {
				return nil, fmt.Errorf("%s-ld: dangling label alias %q -> %q", arch, a, canon)
			}
			img.Labels[name] = idx
		}
		for _, c := range u.Comm {
			name := rename(c)
			if _, dup := img.Symbols[name]; dup {
				if exported[c] {
					continue
				}
				return nil, fmt.Errorf("%s-ld: duplicate data symbol %q", arch, name)
			}
			img.Symbols[name] = addr()
			img.Data = append(img.Data, make([]byte, wordSize)...)
		}
		var strLabels []string
		for l := range u.Strings {
			strLabels = append(strLabels, l)
		}
		sort.Strings(strLabels)
		for _, l := range strLabels {
			name := rename(l)
			if _, dup := img.Symbols[name]; dup {
				return nil, fmt.Errorf("%s-ld: duplicate data symbol %q", arch, name)
			}
			img.Symbols[name] = addr()
			img.Data = append(img.Data, u.Strings[l]...)
			img.Data = append(img.Data, 0)
			for addr()%uint64(wordSize) != 0 {
				img.Data = append(img.Data, 0)
			}
		}
	}
	img.DataEnd = addr()
	entry, ok := img.Labels["main"]
	if !ok {
		return nil, fmt.Errorf("%s-ld: undefined entry point main", arch)
	}
	img.Entry = entry
	return img, nil
}

// equivDialect decodes r<n> as registers, integers as immediates and
// anything else as a symbol. It rejects the opcode "bad" and empty
// operands, each with the line number.
var equivDialect = Dialect{
	Arch:   "t",
	Syntax: Syntax{CommentChars: []string{"#", ";"}, LabelSuffix: ":"},
	Decode: func(l Line) (Instr, error) {
		if l.Op == "bad" {
			return Instr{}, Errf("t", l.Num, "unknown opcode %s", l.Op)
		}
		ins := Instr{Op: l.Op, Line: l.Num}
		for i, a := range l.Args {
			switch v, isInt := ParseInt(a); {
			case a == "":
				return Instr{}, Errf("t", l.Num, "operand %d is empty", i+1)
			case isInt:
				ins.Args = append(ins.Args, Arg{Kind: Imm, Imm: v, Raw: a})
			case len(a) > 1 && a[0] == 'r':
				n, _ := strconv.Atoi(a[1:])
				ins.Args = append(ins.Args, Arg{Kind: Reg, Slot: uint8(n), Reg: a, Raw: a})
			default:
				ins.Args = append(ins.Args, Arg{Kind: Sym, Sym: a, Raw: a})
			}
		}
		return ins, nil
	},
}

const equivInit = `	.globl Init
	.comm z1,4
Init:
	mov z1, r1
	jmp L1
L1:
	mov .fmt, r2
	call printf
	ret
.fmt:	.asciz "%i\n"
`

var equivTexts = []struct{ name, text string }{
	{"empty", ""},
	{"no trailing newline", "\t.globl main\nmain:\n\tmov 1, r1\n\tret"},
	{"trailing newline", "\t.globl main\nmain:\n\tmov 1, r1\n\tret\n"},
	{"CRLF", "\t.globl main\r\nmain:\r\n\tret\r\n"},
	{"blank and comment-only", "\n\n# header\n\t; indented comment\n\t.globl main\nmain: # label comment\n\n\tret ; trailing\n\n"},
	{"empty operand", "\t.globl main\nmain:\n\top a,,b\n"},
	{"trailing comma", "\t.globl main\nmain:\n\top a,\n"},
	{"spaced operands", "\t.globl main\nmain:\n\top  r1 ,\t7 ,  L1\nL1:\tret\n"},
	{"trailing labels", "\t.globl main\nmain:\n\tjmp end2\nL1:\nL2:\n\tret\nend1:\nend2:\n"},
	{"full program", "\t.globl main\n\t.comm z1,4\n\t.comm z2,4\nmain:\n\tcall Init\n\tmov z1, r1\n\tmov .s, r2\n\tjmp L1\nL1:\nL0:\tadd r1, 3, r1\n\tjmp L0x\nL0x:\n\tcall printf\n\tret\n.s:\t.asciz \"a=%i\\n\"\n.t:\t.asciz \"xyz\"\n"},
	{"bad label", "\t.globl main\nmain:\nbad-label:\n\tret\n"},
	{"unknown directive", "\t.globl main\nmain:\n\tret\n\t.bogus 1\n"},
	{"bad opcode", "\t.globl main\nmain:\n\tmov 1, r1\n\tbad r1\n"},
	{"unterminated string", "\t.globl main\nmain:\n\tret\n.s:\t.asciz \"abc\n"},
	{"globl arity", "\t.globl\nmain:\n\tret\n"},
	{"duplicate label", "\t.globl main\nmain:\n\tret\nmain:\n\tret\n"},
	{"unit-local entry", "main:\n\tret\n"},
}

// sansLinkInfo is u as a hand-built unit: same contents, no metadata.
func sansLinkInfo(u *Unit) *Unit {
	c := *u
	c.link = nil
	return &c
}

func TestSplitLineMatchesReference(t *testing.T) {
	extra := []string{"op", "op a", "op a,", "op ,a", "op a,,b", "op ,", "op  a , b ,c", "L: op a,b # c, d", "L:", " : op"}
	for _, tc := range equivTexts {
		extra = append(extra, strings.Split(tc.text, "\n")...)
	}
	for i, raw := range extra {
		got, gerr := equivDialect.Syntax.SplitLine(i+1, raw)
		want, werr := refSplitLine(equivDialect.Syntax, i+1, raw)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gerr, werr) {
			t.Errorf("SplitLine(%q) = %#v, %v; reference %#v, %v", raw, got, gerr, want, werr)
		}
	}
}

func TestParseUnitMatchesReference(t *testing.T) {
	for _, tc := range equivTexts {
		got, gerr := equivDialect.ParseUnit(tc.text)
		want, werr := refParseUnit(equivDialect, tc.text)
		if !reflect.DeepEqual(gerr, werr) {
			t.Errorf("%s: error %v, reference %v", tc.name, gerr, werr)
			continue
		}
		if gerr != nil {
			continue
		}
		if got.link == nil {
			t.Errorf("%s: ParseUnit left the unit without link metadata", tc.name)
		}
		if !reflect.DeepEqual(sansLinkInfo(got), want) {
			t.Errorf("%s: unit differs from reference:\n%+v\n%+v", tc.name, got, want)
		}
	}
}

// TestLinkMatchesReference links every parsed unit alone, before and after
// an init unit, and twice over, and checks that parsed units, the same
// units built by hand without metadata, and the reference linker agree on
// the image or the error.
func TestLinkMatchesReference(t *testing.T) {
	initU, err := equivDialect.ParseUnit(equivInit)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range equivTexts {
		u, err := equivDialect.ParseUnit(tc.text)
		if err != nil {
			continue
		}
		layouts := map[string][]*Unit{
			"alone":       {u},
			"with init":   {u, initU},
			"init first":  {initU, u},
			"twice":       {u, u},
			"init, twice": {initU, u, initU},
		}
		for name, units := range layouts {
			hand := make([]*Unit, len(units))
			for i, x := range units {
				hand[i] = sansLinkInfo(x)
			}
			for _, ws := range []int{4, 8} {
				got, gerr := Link("t", ws, units)
				byHand, herr := Link("t", ws, hand)
				want, werr := refLink("t", ws, units)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) || fmt.Sprint(herr) != fmt.Sprint(werr) {
					t.Errorf("%s/%s/w%d: errors %v, by hand %v, reference %v", tc.name, name, ws, gerr, herr, werr)
					continue
				}
				if werr != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(byHand, want) {
					t.Errorf("%s/%s/w%d: image differs from reference:\n%+v\n%+v\n%+v", tc.name, name, ws, got, byHand, want)
				}
			}
		}
	}
}
