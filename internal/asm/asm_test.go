package asm

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"srcg/internal/machine"
)

func TestSplitLine(t *testing.T) {
	syn := Syntax{CommentChars: []string{"#"}, LabelSuffix: ":"}
	cases := []struct {
		raw   string
		label string
		op    string
		args  []string
	}{
		{"\tmovl $5, %eax", "", "movl", []string{"$5", "%eax"}},
		{"L1: addl %ebx, %eax # comment", "L1", "addl", []string{"%ebx", "%eax"}},
		{"main:", "main", "", nil},
		{"   ", "", "", nil},
		{"# only a comment", "", "", nil},
		{"\tret", "", "ret", nil},
		{".globl main", "", ".globl", []string{"main"}},
	}
	for _, c := range cases {
		l, err := syn.SplitLine(1, c.raw)
		if err != nil {
			t.Errorf("SplitLine(%q): %v", c.raw, err)
			continue
		}
		if l.Label != c.label || l.Op != c.op {
			t.Errorf("SplitLine(%q) = label %q op %q, want %q %q", c.raw, l.Label, l.Op, c.label, c.op)
		}
		if strings.Join(l.Args, "|") != strings.Join(c.args, "|") {
			t.Errorf("SplitLine(%q) args = %v, want %v", c.raw, l.Args, c.args)
		}
	}
}

func TestSplitLineSPARCBrackets(t *testing.T) {
	syn := Syntax{CommentChars: []string{"!"}, LabelSuffix: ":"}
	l, err := syn.SplitLine(1, "\tst %o0, [%fp-8] ! spill")
	if err != nil {
		t.Fatal(err)
	}
	if l.Op != "st" || len(l.Args) != 2 || l.Args[1] != "[%fp-8]" {
		t.Errorf("split = %+v", l)
	}
	if l.Comment != "spill" {
		t.Errorf("comment = %q", l.Comment)
	}
}

func TestParseInt(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "1235": 1235, "-42": -42, "+7": 7,
		"0x4d3": 1235, "0X4D3": 1235, "02323": 1235, "-0x10": -16,
	}
	for s, want := range cases {
		got, ok := ParseInt(s)
		if !ok || got != want {
			t.Errorf("ParseInt(%q) = %d,%v want %d", s, got, ok, want)
		}
	}
	for _, s := range []string{"", "-", "0x", "12a", "08", "x", "1_0"} {
		if _, ok := ParseInt(s); ok {
			t.Errorf("ParseInt(%q) should fail", s)
		}
	}
}

func TestParseIntQuick(t *testing.T) {
	// Decimal rendering of any int64 parses back to itself.
	f := func(v int64) bool {
		got, ok := ParseInt(itoa(v))
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	if v < 0 {
		// Avoid overflow on MinInt64 by building digit-wise.
		if v == -9223372036854775808 {
			return "-9223372036854775808"
		}
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

func TestStringEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		// Restrict to byte strings (our assembler strings are bytes).
		b := []byte(s)
		got, err := unescape(EscapeString(string(b)))
		return err == nil && got == string(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mkUnit(instrs []Instr, globals []string) *Unit {
	return &Unit{Arch: "t", Instrs: instrs, Globals: globals,
		Strings: map[string]string{}, Aliases: map[string]string{}}
}

func TestLinkRenamesLocalLabels(t *testing.T) {
	u1 := mkUnit([]Instr{
		{Label: "main", Op: "jmp", Args: []Arg{{Kind: Sym, Sym: "L1"}}},
		{Label: "L1", Op: "ret"},
	}, []string{"main"})
	u2 := mkUnit([]Instr{
		{Label: "P", Op: "jmp", Args: []Arg{{Kind: Sym, Sym: "L1"}}},
		{Label: "L1", Op: "ret"},
	}, []string{"P"})
	img, err := Link("t", 4, []*Unit{u1, u2})
	if err != nil {
		t.Fatal(err)
	}
	if img.Instrs[0].Args[0].Sym == img.Instrs[2].Args[0].Sym {
		t.Error("local labels from different units must not collide")
	}
	if _, ok := img.Labels["main"]; !ok {
		t.Error("exported label lost")
	}
}

func TestLinkDuplicateGlobals(t *testing.T) {
	u1 := mkUnit([]Instr{{Label: "main", Op: "ret"}}, []string{"main"})
	u2 := mkUnit([]Instr{{Label: "main", Op: "ret"}}, []string{"main"})
	if _, err := Link("t", 4, []*Unit{u1, u2}); err == nil {
		t.Error("duplicate exported label must fail")
	}
}

func TestLinkDataLayout(t *testing.T) {
	u := mkUnit([]Instr{{Label: "main", Op: "ret"}}, []string{"main"})
	u.Comm = []string{"z1", "z2"}
	u.Globals = append(u.Globals, "z1", "z2")
	u.Strings[".str1"] = "%i\n"
	img, err := Link("t", 4, []*Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	if img.Symbols["z2"]-img.Symbols["z1"] != 4 {
		t.Errorf("comm layout: %v", img.Symbols)
	}
	strAddr, ok := img.Resolve("u0$.str1")
	if !ok {
		t.Fatalf("string symbol missing: %v", img.Symbols)
	}
	off := strAddr - machine.DataBase
	if img.Data[off] != '%' || img.Data[off+3] != 0 {
		t.Errorf("string bytes wrong at %#x", strAddr)
	}
	if img.DataEnd <= strAddr {
		t.Errorf("DataEnd %#x not past string %#x", img.DataEnd, strAddr)
	}
}

// TestLinkReusesUnits links one unit many times at different positions —
// the mutation engine's pattern for a sample's harness and init units —
// and checks that linking never writes through to the unit's operands
// and that the same link always yields the same image.
func TestLinkReusesUnits(t *testing.T) {
	shared := mkUnit([]Instr{
		{Label: "init", Op: "jmp", Args: []Arg{{Kind: Sym, Sym: "L1", Raw: "L1"}}},
		{Label: "L1", Op: "mov", Args: []Arg{{Kind: Reg, Slot: 3, Reg: "r3", Raw: "r3"}, {Kind: Sym, Sym: "s", Raw: "s"}}},
		{Op: "call", Args: []Arg{{Kind: Sym, Sym: "printf", Raw: "printf"}}},
	}, []string{"init"})
	shared.Strings["s"] = "%i\n"
	before := make([][]Arg, len(shared.Instrs))
	for i, ins := range shared.Instrs {
		before[i] = append([]Arg(nil), ins.Args...)
	}
	mkMain := func(name string) *Unit {
		return mkUnit([]Instr{
			{Label: name, Op: "jmp", Args: []Arg{{Kind: Sym, Sym: "L1", Raw: "L1"}}},
			{Label: "L1", Op: "ret"},
		}, []string{name})
	}
	var first [3]*Image
	for round := 0; round < 3; round++ {
		layouts := [][]*Unit{
			{mkMain("main"), shared},
			{shared, mkMain("main")},
			{mkMain("main"), mkMain("other"), shared},
		}
		for li, units := range layouts {
			img, err := Link("t", 4, units)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first[li] = img
			} else if !reflect.DeepEqual(img, first[li]) {
				t.Errorf("layout %d: relink differs:\n%+v\n%+v", li, img, first[li])
			}
		}
	}
	for i, ins := range shared.Instrs {
		if !reflect.DeepEqual(ins.Args, before[i]) {
			t.Errorf("unit instruction %d operands changed by linking: %+v, was %+v", i, ins.Args, before[i])
		}
	}
	// An instruction whose symbols all stay unrenamed shares its operands.
	if img := first[0]; &img.Instrs[4].Args[0] != &shared.Instrs[2].Args[0] {
		t.Error("unrenamed operands were copied")
	}
}

// TestOperandSizes pins the decoded-program footprint: warm caches keep
// every unit and image alive, so Arg and Instr must not grow.
func TestOperandSizes(t *testing.T) {
	if got := unsafe.Sizeof(Arg{}); got != 64 {
		t.Errorf("sizeof(Arg) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(Instr{}); got != 64 {
		t.Errorf("sizeof(Instr) = %d, want 64", got)
	}
}

func TestLinkAliases(t *testing.T) {
	u := mkUnit([]Instr{
		{Label: "main", Op: "jmp", Args: []Arg{{Kind: Sym, Sym: "L2"}}},
		{Label: "L1", Op: "ret"},
	}, []string{"main"})
	u.Aliases["L2"] = "L1"
	img, err := Link("t", 4, []*Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	if img.Labels["u0$L2"] != img.Labels["u0$L1"] {
		t.Errorf("alias index mismatch: %v", img.Labels)
	}
}

func TestCheckUndefined(t *testing.T) {
	u := mkUnit([]Instr{
		{Label: "main", Op: "call", Args: []Arg{{Kind: Sym, Sym: "missing"}}},
	}, []string{"main"})
	img, err := Link("t", 4, []*Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	if err := img.CheckUndefined(); err == nil {
		t.Error("undefined symbol must be reported")
	}
	u2 := mkUnit([]Instr{
		{Label: "main", Op: "call", Args: []Arg{{Kind: Sym, Sym: "printf"}}},
	}, []string{"main"})
	img2, _ := Link("t", 4, []*Unit{u2})
	if err := img2.CheckUndefined(); err != nil {
		t.Errorf("builtins must resolve: %v", err)
	}
}

func TestDialectConsecutiveLabels(t *testing.T) {
	d := Dialect{Arch: "t", Syntax: Syntax{CommentChars: []string{"#"}, LabelSuffix: ":"},
		Decode: func(l Line) (Instr, error) {
			return Instr{Op: l.Op, Line: l.Num}, nil
		}}
	u, err := d.ParseUnit("L1:\nL2:\n\tnop\nL3:\n")
	if err != nil {
		t.Fatal(err)
	}
	if u.Instrs[0].Label != "L1" || u.Aliases["L2"] != "L1" {
		t.Errorf("labels: %+v aliases: %v", u.Instrs, u.Aliases)
	}
	if u.Aliases["L3"] != "$end" {
		t.Errorf("trailing label: %v", u.Aliases)
	}
}
