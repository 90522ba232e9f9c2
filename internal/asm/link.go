package asm

import (
	"fmt"
	"slices"
	"strconv"

	"srcg/internal/machine"
)

// Image is a linked executable: a flat instruction stream plus an initial
// data segment. It is what the simulated `ld` produces and the simulated
// machine executes.
type Image struct {
	Arch     string
	WordSize int // bytes per integer word in static data
	Instrs   []Instr
	Labels   map[string]int    // code label -> instruction index
	Symbols  map[string]uint64 // data symbol -> address
	Data     []byte            // initial contents of [DataBase, DataEnd)
	DataEnd  uint64            // first address past the static data segment
	Entry    int               // instruction index of the entry point
}

// linkInfo is what Link needs to know about a unit's names: which it
// exports, which it defines (and so renames in its own references), and
// its alias and string labels in link order. ParseUnit computes it once
// per unit; Link computes it per call for units built by hand.
type linkInfo struct {
	exported  []string // sorted, distinct
	defined   []string // sorted, distinct: code labels, aliases, strings, .comm
	aliases   []string // sorted alias names
	strLabels []string // sorted string labels
	marks     []uint8  // per instruction
	labels    int      // code labels and aliases the unit adds to an image
	localArgs int      // operands of the instructions marked markLocalSym
	strBytes  int      // string bytes, terminators included
}

// Instruction marks.
const (
	markLocalSym      = 1 << iota // an operand names a symbol the unit defines
	markExportedLabel             // the instruction's label is exported
)

func newLinkInfo(u *Unit) *linkInfo {
	info := &linkInfo{
		exported:  sortedSet(slices.Clone(u.Globals)),
		aliases:   sortedKeys(u.Aliases),
		strLabels: sortedKeys(u.Strings),
		marks:     make([]uint8, len(u.Instrs)),
		labels:    len(u.Aliases),
	}
	defined := make([]string, 0, len(u.Instrs)/2+len(u.Aliases)+len(u.Strings)+len(u.Comm))
	for _, ins := range u.Instrs {
		if ins.Label != "" {
			defined = append(defined, ins.Label)
			info.labels++
		}
	}
	defined = append(defined, info.aliases...)
	defined = append(defined, info.strLabels...)
	info.defined = sortedSet(append(defined, u.Comm...))
	for _, s := range u.Strings {
		info.strBytes += len(s) + 1
	}
	for i, ins := range u.Instrs {
		if ins.Label != "" && has(info.exported, ins.Label) {
			info.marks[i] |= markExportedLabel
		}
		for _, a := range ins.Args {
			if a.Sym != "" && has(info.defined, a.Sym) {
				info.marks[i] |= markLocalSym
				info.localArgs += len(ins.Args)
				break
			}
		}
	}
	return info
}

// has reports whether the sorted set holds name.
func has(set []string, name string) bool {
	_, ok := slices.BinarySearch(set, name)
	return ok
}

// sortedSet sorts names in place and drops repeats.
func sortedSet(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	slices.Sort(names)
	return slices.Compact(names)
}

func sortedKeys(m map[string]string) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Link combines assembled units into an executable image. Non-exported
// labels are renamed per unit (real linkers keep them unit-local); exported
// labels and data symbols share one namespace. The entry point is `main`.
// The image shares each instruction's operands with its unit unless a
// rename rewrites them, so units must not be mutated after assembly.
func Link(arch string, wordSize int, units []*Unit) (*Image, error) {
	var buf [4]*linkInfo
	infos := buf[:0]
	n, labels, syms, data := 0, 0, 0, 0
	for _, u := range units {
		info := u.link
		if info == nil {
			info = newLinkInfo(u)
		}
		infos = append(infos, info)
		n += len(u.Instrs)
		labels += info.labels
		syms += len(u.Comm) + len(u.Strings)
		data += len(u.Comm)*wordSize + info.strBytes + len(u.Strings)*(wordSize-1)
	}
	img := &Image{
		Arch:     arch,
		WordSize: wordSize,
		Instrs:   make([]Instr, 0, n),
		Labels:   make(map[string]int, labels),
		Symbols:  make(map[string]uint64, syms),
	}
	if data > 0 {
		img.Data = make([]byte, 0, data)
	}
	addr := func() uint64 { return machine.DataBase + uint64(len(img.Data)) }

	for ui, u := range units {
		info := infos[ui]
		prefix := "u" + strconv.Itoa(ui) + "$"
		var args []Arg // renamed operands, one allocation per unit
		if info.localArgs > 0 {
			args = make([]Arg, 0, info.localArgs)
		}
		rename := func(name string) string {
			if has(info.exported, name) {
				return name
			}
			return prefix + name
		}

		for i, ins := range u.Instrs {
			ni := ins
			m := info.marks[i]
			if ni.Label != "" {
				if m&markExportedLabel == 0 {
					ni.Label = prefix + ni.Label
				}
				if _, dup := img.Labels[ni.Label]; dup {
					return nil, fmt.Errorf("%s-ld: duplicate label %q", arch, ni.Label)
				}
				img.Labels[ni.Label] = len(img.Instrs)
			}
			if m&markLocalSym != 0 {
				// Operands naming a unit-defined symbol are renamed in a
				// copy; every other instruction shares its unit's operands.
				k := len(args)
				args = append(args, ins.Args...)
				ni.Args = args[k:len(args):len(args)]
				for ai, a := range ni.Args {
					if a.Sym == "" || !has(info.defined, a.Sym) {
						continue
					}
					ni.Args[ai].Sym = rename(a.Sym)
					ni.Args[ai].Raw = "" // raw text no longer matches
				}
			}
			img.Instrs = append(img.Instrs, ni)
		}
		// Alias labels share the canonical label's instruction index; a
		// trailing label (canonical target endLabel) points one past the
		// unit's last instruction.
		for _, a := range info.aliases {
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

		// Data: .comm symbols then strings, in deterministic order.
		for _, c := range u.Comm {
			name := rename(c)
			if _, dup := img.Symbols[name]; dup {
				// Multiple .comm for the same exported symbol merge, as
				// with real common symbols.
				if has(info.exported, c) {
					continue
				}
				return nil, fmt.Errorf("%s-ld: duplicate data symbol %q", arch, name)
			}
			img.Symbols[name] = addr()
			img.Data = append(img.Data, make([]byte, wordSize)...)
		}
		for _, l := range info.strLabels {
			name := rename(l)
			if _, dup := img.Symbols[name]; dup {
				return nil, fmt.Errorf("%s-ld: duplicate data symbol %q", arch, name)
			}
			img.Symbols[name] = addr()
			img.Data = append(img.Data, u.Strings[l]...)
			img.Data = append(img.Data, 0)
			// Keep words aligned.
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

// Builtins are runtime services every simulated OS provides; calls to these
// names resolve even though no unit defines them.
var Builtins = map[string]bool{
	"printf": true,
	"exit":   true,
	".mul":   true, // SPARC software multiply
	".div":   true, // SPARC software divide
	".rem":   true, // SPARC software remainder
}

// CheckUndefined verifies that every symbolic reference resolves to a code
// label, data symbol, or runtime builtin.
func (img *Image) CheckUndefined() error {
	for _, ins := range img.Instrs {
		for _, a := range ins.Args {
			if a.Sym == "" {
				continue
			}
			if _, ok := img.Labels[a.Sym]; ok {
				continue
			}
			if _, ok := img.Symbols[a.Sym]; ok {
				continue
			}
			if Builtins[a.Sym] {
				continue
			}
			return fmt.Errorf("%s-ld: undefined symbol %q (line %d)", img.Arch, a.Sym, ins.Line)
		}
	}
	return nil
}

// Resolve returns the data address for a symbol, consulting data symbols
// first (labels are code addresses, meaningless as data).
func (img *Image) Resolve(sym string) (uint64, bool) {
	a, ok := img.Symbols[sym]
	return a, ok
}
