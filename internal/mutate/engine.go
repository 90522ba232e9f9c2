// Package mutate implements the Preprocessor of the discovery unit (paper
// §4): mutation analysis. Samples are mutated — instructions deleted,
// moved, or copied; registers renamed or clobbered (Fig. 5) — reassembled,
// re-run on the target, and their output compared with the original. The
// analyses built on this primitive are redundant-instruction elimination
// (§4.2), live-range splitting (§4.3), implicit-argument detection (§4.4),
// definition/use classification (§4.5), and hidden-channel detection
// (§7.1). Every verdict requires all mutation variants (different clobber
// values, different replacement registers) to agree.
package mutate

import (
	"fmt"
	"math/rand"
	"strings"

	"srcg/internal/asm"
	"srcg/internal/discovery"
)

// FNV-64a, inlined over strings: the mutation cache keys a full rebuilt
// sample text per probe, and hash/fnv would force a []byte copy of it.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Telemetry names the mutation engine maintains on the rig's tracer: the
// mutation cache's hit/miss split, the denominator of the probe-savings
// story (a hit is a toolchain round-trip never made).
const (
	CtrCacheHits   = "mutate.cache_hits"
	CtrCacheMisses = "mutate.cache_misses"
)

// Engine runs mutated samples against the target and caches results.
type Engine struct {
	Rig   *discovery.Rig
	Model *discovery.Model
	Rand  *rand.Rand

	initUnits map[string]*asm.Unit
	cache     map[uint64]bool

	// The mutant text assembled last and its unit: a verdict probes one
	// text under every valuation, so it is assembled once, not once per
	// valuation. One unit per engine keeps the memory bounded.
	lastText string
	lastUnit *asm.Unit
}

// New creates a mutation engine.
func New(rig *discovery.Rig, m *discovery.Model, rnd *rand.Rand) *Engine {
	return &Engine{
		Rig:       rig,
		Model:     m,
		Rand:      rnd,
		initUnits: map[string]*asm.Unit{},
		cache:     map[uint64]bool{},
	}
}

// initUnit assembles (and caches) an initializer unit.
func (e *Engine) initUnit(src string) (*asm.Unit, error) {
	if u, ok := e.initUnits[src]; ok {
		return u, nil
	}
	text, err := e.Rig.CompileAsm(src)
	if err != nil {
		return nil, err
	}
	u, err := e.Rig.Assemble(text)
	if err != nil {
		return nil, err
	}
	e.initUnits[src] = u
	return u, nil
}

// assemble assembles a mutant text, reusing the unit of the text it
// assembled last. Only a successful assembly is reused: a reject is
// asked again, so the toolchain stays the oracle for it.
func (e *Engine) assemble(text string) (*asm.Unit, error) {
	if e.lastUnit != nil && text == e.lastText {
		return e.lastUnit, nil
	}
	u, err := e.Rig.Assemble(text)
	if err != nil || u == nil {
		return nil, err
	}
	e.lastText, e.lastUnit = text, u
	return u, nil
}

// SameOutput assembles, links, and runs the sample with a replacement
// region under EVERY valuation, reporting whether all still produce the
// expected outputs. Any failure (assembly rejection, link error, runtime
// fault, wrong output) counts as "behaved differently".
func (e *Engine) SameOutput(s *discovery.Sample, region []discovery.Instr) bool {
	return e.sameOutput(s, s.Rebuild(region))
}

// sameOutput is SameOutput on the sample's rebuilt text.
func (e *Engine) sameOutput(s *discovery.Sample, text string) bool {
	for i := 0; i < s.NumValuations(); i++ {
		if !e.sameOutputVal(s, text, i) {
			return false
		}
	}
	return true
}

// SameOutputVal checks a single valuation (index 0 is the base). The
// value-specific attribution probes (§4.4's repair insertions) use the
// base valuation only, since their repair constants are drawn from it.
func (e *Engine) SameOutputVal(s *discovery.Sample, region []discovery.Instr, val int) bool {
	return e.sameOutputVal(s, s.Rebuild(region), val)
}

func (e *Engine) sameOutputVal(s *discovery.Sample, text string, val int) bool {
	v := s.Valuation(val)
	key := fnvAdd(fnvOffset64, s.Name)
	key = (key ^ uint64(byte(val))) * fnvPrime64
	key = fnvAdd(key, text)
	if cached, ok := e.cache[key]; ok {
		e.Rig.Trace().Count(CtrCacheHits, 1)
		return cached
	}
	e.Rig.Trace().Count(CtrCacheMisses, 1)
	e.Rig.Trace().Count(discovery.CtrMutations, 1)
	same := func() bool {
		u, err := e.assemble(text)
		if err != nil {
			return false
		}
		initU, err := e.initUnit(v.InitSource)
		if err != nil {
			return false
		}
		out, err := e.Rig.LinkRun(u, initU)
		return err == nil && out == v.ExpectedOut
	}()
	e.cache[key] = same
	return same
}

// OutputOf runs the sample with a replacement region under valuation val
// and returns the raw stdout (for analyses that compare against something
// other than the original output, e.g. the Synthesizer's jump probe).
func (e *Engine) OutputOf(s *discovery.Sample, region []discovery.Instr, val int) (string, error) {
	v := s.Valuation(val)
	u, err := e.assemble(s.Rebuild(region))
	if err != nil {
		return "", err
	}
	initU, err := e.initUnit(v.InitSource)
	if err != nil {
		return "", err
	}
	e.Rig.Trace().Count(discovery.CtrMutations, 1)
	return e.Rig.LinkRun(u, initU)
}

// clobberValues returns n distinct pseudo-random clobber constants. The
// paper's correctness argument (Fig. 6) needs at least two variants with
// different values.
func (e *Engine) clobberValues(n int) []int64 {
	out := make([]int64, n)
	seen := map[int64]bool{}
	for i := range out {
		for {
			v := int64(e.Rand.Intn(1<<20) - 1<<19)
			if v != 0 && !seen[v] {
				seen[v] = true
				out[i] = v
				break
			}
		}
	}
	return out
}

// ClobberInstr renders the model's clobber template as an instruction.
func (e *Engine) ClobberInstr(reg string, k int64) discovery.Instr {
	line := strings.TrimSpace(e.Model.Clobber(reg, k))
	op := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		op, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	ins := discovery.Instr{Op: op}
	if rest != "" {
		for _, a := range strings.Split(rest, ",") {
			a = strings.TrimSpace(a)
			arg := discovery.Operand{Text: a}
			if e.Model.IsReg(a) {
				arg.Kind = discovery.KReg
				arg.Regs = []string{a}
			} else {
				arg.Kind = discovery.KLit
			}
			ins.Args = append(ins.Args, arg)
		}
	}
	return ins
}

// --- Region editing primitives (the Fig. 5 mutation vocabulary) ---

// Delete removes instruction i (its labels move to the next instruction).
func Delete(region []discovery.Instr, i int) []discovery.Instr {
	out := discovery.CloneInstrs(region)
	labels := out[i].Labels
	out = append(out[:i], out[i+1:]...)
	if len(labels) > 0 && i < len(out) {
		out[i].Labels = append(labels, out[i].Labels...)
	}
	return out
}

// Insert places instruction ins before position i.
func Insert(region []discovery.Instr, i int, ins discovery.Instr) []discovery.Instr {
	out := discovery.CloneInstrs(region)
	out = append(out, discovery.Instr{})
	copy(out[i+1:], out[i:])
	out[i] = ins
	return out
}

// Move relocates instruction from to sit just before position to
// (positions are pre-removal indexes).
func Move(region []discovery.Instr, from, to int) []discovery.Instr {
	out := discovery.CloneInstrs(region)
	ins := out[from]
	ins.Labels = nil // labels stay at the original location
	rest := append(out[:from:from], out[from+1:]...)
	if to > from {
		to--
	}
	rest = append(rest, discovery.Instr{})
	copy(rest[to+1:], rest[to:])
	rest[to] = ins
	if len(region[from].Labels) > 0 && from < len(rest) {
		rest[from].Labels = append(append([]string(nil), region[from].Labels...), rest[from].Labels...)
	}
	return rest
}

// Copy duplicates instruction from to sit just before position to.
func Copy(region []discovery.Instr, from, to int) []discovery.Instr {
	out := discovery.CloneInstrs(region)
	dup := discovery.CloneInstrs(region[from : from+1])[0]
	dup.Labels = nil
	return Insert(out, to, dup)
}

// RenameAt renames reg→to in the instructions whose indexes are listed.
func RenameAt(region []discovery.Instr, idxs []int, reg, to string) []discovery.Instr {
	out := discovery.CloneInstrs(region)
	for _, i := range idxs {
		out[i].RenameReg(reg, to)
	}
	return out
}

// freshRegisters returns candidate replacement registers that do not occur
// anywhere in the region, preferring ones observed as plain operands
// elsewhere in the corpus (general-purpose behavior).
func (e *Engine) freshRegisters(region []discovery.Instr, max int) []string {
	used := map[string]bool{}
	for _, r := range discovery.Registers(region) {
		used[r] = true
	}
	var out []string
	for _, r := range e.Model.Registers {
		if !used[r] {
			out = append(out, r)
			if len(out) >= max {
				break
			}
		}
	}
	return out
}

func describe(region []discovery.Instr) string {
	var sb strings.Builder
	for i, ins := range region {
		fmt.Fprintf(&sb, "%2d: %s\n", i, ins)
	}
	return sb.String()
}
