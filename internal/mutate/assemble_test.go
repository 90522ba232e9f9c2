package mutate

import (
	"math/rand"
	"testing"

	"srcg/internal/asm"
	"srcg/internal/discovery"
	"srcg/internal/gen"
	"srcg/internal/lexer"
	"srcg/internal/probe"
	"srcg/internal/target"
	"srcg/internal/target/x86"
)

// countingTC counts the physical toolchain calls a rig makes, and each
// assembly text separately.
type countingTC struct {
	target.Toolchain
	assembled       map[string]int
	links, executes int
}

func (c *countingTC) Assemble(text string) (*asm.Unit, error) {
	c.assembled[text]++
	return c.Toolchain.Assemble(text)
}

func (c *countingTC) Link(units []*asm.Unit) (*asm.Image, error) {
	c.links++
	return c.Toolchain.Link(units)
}

func (c *countingTC) Execute(img *asm.Image) (string, error) {
	c.executes++
	return c.Toolchain.Execute(img)
}

func (c *countingTC) reset() {
	c.assembled = map[string]int{}
	c.links, c.executes = 0, 0
}

// countingSetup is setup on a counting toolchain whose rig trusts a single
// run, so every link is followed by exactly one execution.
func countingSetup(t *testing.T, tc target.Toolchain) (*Engine, *countingTC, map[string]*discovery.Sample) {
	t.Helper()
	ctc := &countingTC{Toolchain: tc}
	ctc.reset()
	cfg := probe.DefaultConfig()
	cfg.QuorumN = 1
	rig := discovery.NewRigConfig(ctc, cfg)
	samples, err := gen.Samples(gen.Config{Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	m, err := lexer.Bootstrap(rig, samples)
	if err != nil {
		t.Fatalf("Bootstrap(%s): %v", tc.Name(), err)
	}
	byName := map[string]*discovery.Sample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	return New(rig, m, rand.New(rand.NewSource(9))), ctc, byName
}

// freshEngine returns an engine with an empty verdict cache whose init
// units for s are already assembled, so counts taken afterwards are the
// mutants' alone.
func freshEngine(t *testing.T, e *Engine, s *discovery.Sample) *Engine {
	t.Helper()
	f := New(e.Rig, e.Model, rand.New(rand.NewSource(11)))
	for i := 0; i < s.NumValuations(); i++ {
		if _, err := f.initUnit(s.Valuation(i).InitSource); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestSameOutputAssemblesOnce: a verdict over every valuation assembles
// the mutant text once, but links and runs it once per valuation.
func TestSameOutputAssemblesOnce(t *testing.T) {
	e, tc, samples := countingSetup(t, x86.New())
	s := samples["int.mul.b_c"]
	n := s.NumValuations()
	if n < 2 {
		t.Fatalf("%s has %d valuations, want at least 2", s.Name, n)
	}
	e = freshEngine(t, e, s)
	region := Insert(s.CloneRegion(), 0, e.ClobberInstr("%ecx", 77))
	tc.reset()
	if !e.SameOutput(s, region) {
		t.Fatal("clobbering a dead register changed the output")
	}
	text := s.Rebuild(region)
	if got := tc.assembled[text]; got != 1 || len(tc.assembled) != 1 {
		t.Errorf("mutant assembled %d time(s), %d distinct text(s); want once, one text", got, len(tc.assembled))
	}
	if tc.links != n || tc.executes != n {
		t.Errorf("links=%d executes=%d, want %d each (one per valuation)", tc.links, tc.executes, n)
	}
}

// TestRangeProbesAssembleOnce: live-range splitting and def/use
// classification check that a mutant assembles before asking for its
// verdict; the check and the verdict share one assembly.
func TestRangeProbesAssembleOnce(t *testing.T) {
	e, tc, samples := countingSetup(t, x86.New())
	s := samples["int.mul.b_c"]
	a := analyze(t, e, s)
	e = freshEngine(t, e, s)
	tc.reset()
	ranges := e.SplitLiveRanges(a, "%edx")
	if len(ranges) != 1 {
		t.Fatalf("ranges = %v, want one", ranges)
	}
	e.ClassifyRefs(a, ranges[0])
	if tc.links == 0 {
		t.Fatal("no mutant was run")
	}
	for text, got := range tc.assembled {
		if got != 1 {
			t.Errorf("text assembled %d times, want once:\n%s", got, text)
		}
	}
}

// TestRejectedTextIsAskedAgain: only a successful assembly is reused.
func TestRejectedTextIsAskedAgain(t *testing.T) {
	e, tc, _ := countingSetup(t, x86.New())
	tc.reset()
	const bad = "\tfrobnicate %eax\n"
	for i := 0; i < 2; i++ {
		if u, err := e.assemble(bad); err == nil || u != nil {
			t.Fatalf("assemble(%q) = %v, %v; want a reject", bad, u, err)
		}
	}
	if got := tc.assembled[bad]; got != 2 {
		t.Errorf("rejected text assembled %d times, want 2", got)
	}
}
