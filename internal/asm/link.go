package asm

import (
	"fmt"
	"sort"
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

// Link combines assembled units into an executable image. Non-exported
// labels are renamed per unit (real linkers keep them unit-local); exported
// labels and data symbols share one namespace. The entry point is `main`.
// The image shares each instruction's operands with its unit unless a
// rename rewrites them, so units must not be mutated after assembly.
func Link(arch string, wordSize int, units []*Unit) (*Image, error) {
	n := 0
	for _, u := range units {
		n += len(u.Instrs)
	}
	img := &Image{
		Arch:     arch,
		WordSize: wordSize,
		Instrs:   make([]Instr, 0, n),
		Labels:   map[string]int{},
		Symbols:  map[string]uint64{},
	}
	addr := func() uint64 { return machine.DataBase + uint64(len(img.Data)) }

	for ui, u := range units {
		exported := map[string]bool{}
		for _, g := range u.Globals {
			exported[g] = true
		}
		prefix := "u" + strconv.Itoa(ui) + "$"
		rename := func(name string) string {
			if exported[name] {
				return name
			}
			return prefix + name
		}

		// Code labels defined in this unit (needed to tell label refs
		// from data refs when renaming).
		defined := map[string]bool{}
		for _, ins := range u.Instrs {
			if ins.Label != "" {
				defined[ins.Label] = true
			}
		}
		for alias := range u.Aliases {
			defined[alias] = true
		}
		// Unit-local data names (strings, .comm) must be renamed in
		// references exactly like code labels.
		for l := range u.Strings {
			defined[l] = true
		}
		for _, c := range u.Comm {
			defined[c] = true
		}

		for _, ins := range u.Instrs {
			ni := ins
			if ni.Label != "" {
				ni.Label = rename(ni.Label)
				if _, dup := img.Labels[ni.Label]; dup {
					return nil, fmt.Errorf("%s-ld: duplicate label %q", arch, ni.Label)
				}
				img.Labels[ni.Label] = len(img.Instrs)
			}
			shared := true
			for ai, a := range ins.Args {
				if a.Sym == "" || !defined[a.Sym] {
					continue
				}
				if shared { // copy on the first rename only
					ni.Args, shared = append([]Arg(nil), ins.Args...), false
				}
				ni.Args[ai].Sym = rename(a.Sym)
				ni.Args[ai].Raw = "" // raw text no longer matches
			}
			img.Instrs = append(img.Instrs, ni)
		}
		// Alias labels share the canonical label's instruction index; a
		// trailing label (canonical target endLabel) points one past the
		// unit's last instruction.
		aliases := make([]string, 0, len(u.Aliases))
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

		// Data: .comm symbols then strings, in deterministic order.
		for _, c := range u.Comm {
			name := rename(c)
			if _, dup := img.Symbols[name]; dup {
				// Multiple .comm for the same exported symbol merge, as
				// with real common symbols.
				if exported[c] {
					continue
				}
				return nil, fmt.Errorf("%s-ld: duplicate data symbol %q", arch, name)
			}
			img.Symbols[name] = addr()
			img.Data = append(img.Data, make([]byte, wordSize)...)
		}
		strLabels := make([]string, 0, len(u.Strings))
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
