package machine

import (
	"testing"
	"testing/quick"
)

func TestMemoryRoundTrip(t *testing.T) {
	f := func(addr uint32, v uint32) bool {
		m := NewMemory()
		m.Store(uint64(addr), 4, uint64(v))
		return m.Load(uint64(addr), 4) == uint64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryLittleEndian(t *testing.T) {
	m := NewMemory()
	m.Store(100, 4, 0x11223344)
	if m.Load(100, 1) != 0x44 || m.Load(103, 1) != 0x11 {
		t.Errorf("byte order wrong: %x %x", m.Load(100, 1), m.Load(103, 1))
	}
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory()
	m.AddBound(100, 200)
	m.Store(150, 4, 1)
	if m.Fault() != nil {
		t.Fatalf("in-bounds store faulted: %v", m.Fault())
	}
	m.Load(198, 4) // crosses the upper bound
	if m.Fault() == nil {
		t.Fatal("boundary-crossing load must fault")
	}
	// The fault latches: later valid accesses do not clear it.
	first := m.Fault()
	m.Load(150, 4)
	if m.Fault() != first {
		t.Error("fault must latch")
	}
}

func TestMemoryUnboundedByDefault(t *testing.T) {
	m := NewMemory()
	m.Store(1<<40, 8, 7)
	if m.Fault() != nil {
		t.Errorf("unbounded memory faulted: %v", m.Fault())
	}
}

// stack returns a memory bounded like a running program's: a small data
// segment and the stack.
func stack() *Memory {
	m := NewMemory()
	m.AddBound(DataBase, DataBase+64)
	m.AddBound(StackTop-StackSize, StackTop)
	return m
}

func TestMemorySegmentEdges(t *testing.T) {
	m := stack()
	lo, hi := uint64(StackTop-StackSize), uint64(StackTop-4)
	m.Store(hi, 4, 0xA1B2C3D4)
	m.Store(lo, 4, 0x01020304)
	m.Store(DataBase, 4, 7)
	m.Store(DataBase+60, 4, 9)
	if err := m.Fault(); err != nil {
		t.Fatalf("in-bounds edge store faulted: %v", err)
	}
	if m.Load(hi, 4) != 0xA1B2C3D4 || m.Load(lo, 4) != 0x01020304 {
		t.Errorf("stack edges: %#x %#x", m.Load(hi, 4), m.Load(lo, 4))
	}
	if m.Load(DataBase, 4) != 7 || m.Load(DataBase+60, 4) != 9 {
		t.Errorf("data edges: %d %d", m.Load(DataBase, 4), m.Load(DataBase+60, 4))
	}
	// One byte past either edge of the stack faults.
	m.Store(StackTop-3, 4, 1)
	if m.Fault() == nil {
		t.Error("store crossing the top of the stack must fault")
	}
	m = stack()
	m.Load(lo-1, 4)
	if m.Fault() == nil {
		t.Error("load crossing the bottom of the stack must fault")
	}
}

func TestMemoryGrowsDownAcrossChunks(t *testing.T) {
	m := stack()
	// Push a word every 60 bytes from the top down, crossing several
	// growth granules, then read every word back.
	var addrs []uint64
	for a := uint64(StackTop - 4); a > StackTop-3*segChunk-100; a -= 60 {
		m.Store(a, 4, a^0x5A5A)
		addrs = append(addrs, a)
	}
	// A word straddling a granule boundary.
	edge := uint64(StackTop - 2*segChunk - 2)
	m.Store(edge, 4, 0xCAFEBABE)
	for _, a := range addrs {
		if a+4 > edge && a < edge+4 {
			continue
		}
		if got := m.Load(a, 4); got != a^0x5A5A {
			t.Errorf("word at %#x = %#x, want %#x", a, got, a^0x5A5A)
		}
	}
	if got := m.Load(edge, 4); got != 0xCAFEBABE {
		t.Errorf("straddling word = %#x", got)
	}
	// Memory below the deepest store was never written: it reads zero
	// without being allocated.
	if got := m.Load(StackTop-StackSize+8, 4); got != 0 {
		t.Errorf("unwritten stack word = %#x", got)
	}
	if s := m.within(StackTop-1, 1); uint64(len(s.buf)) >= StackSize {
		t.Errorf("stack backed with %d bytes after shallow use", len(s.buf))
	}
	if m.Fault() != nil {
		t.Errorf("in-bounds accesses faulted: %v", m.Fault())
	}
}

func TestMemoryFirstFaultKeepsAddress(t *testing.T) {
	m := stack()
	m.Store(0x40, 4, 1) // below every segment
	first := m.Fault()
	if first == nil || first.Error() != "machine: memory access fault at 0x40" {
		t.Fatalf("first fault = %v", first)
	}
	m.Load(StackTop, 4)
	m.Store(DataBase+62, 4, 1)
	m.Load(DataBase, 4)
	if m.Fault() != first {
		t.Errorf("fault changed to %v", m.Fault())
	}
	// The faulting store still landed, as on the unbounded map before.
	if m.Load(0x40, 4) != 1 {
		t.Error("out-of-bounds store lost")
	}
}

func TestMemoryUnboundedFallback(t *testing.T) {
	m := NewMemory()
	for _, a := range []uint64{0, DataBase, StackTop - 4, 1 << 40} {
		m.Store(a, 4, a&0xFFFF|0x10000)
	}
	for _, a := range []uint64{0, DataBase, StackTop - 4, 1 << 40} {
		if got := m.Load(a, 4); got != a&0xFFFF|0x10000 {
			t.Errorf("unbounded word at %#x = %#x", a, got)
		}
	}
	if m.Fault() != nil {
		t.Errorf("unbounded memory faulted: %v", m.Fault())
	}
}

func TestLoadCStringUnwritten(t *testing.T) {
	m := stack()
	for _, a := range []uint64{DataBase + 8, StackTop - StackSize, StackTop - 1, 0x40} {
		if s, err := m.LoadCString(a); err != nil || s != "" {
			t.Errorf("LoadCString(%#x) over unwritten bytes = %q, %v", a, s, err)
		}
	}
	m.StoreBytes(DataBase, []byte("ab\x00"))
	if s, err := m.LoadCString(DataBase); err != nil || s != "ab" {
		t.Errorf("LoadCString = %q, %v", s, err)
	}
	if m.Fault() != nil {
		t.Errorf("string reads faulted: %v", m.Fault())
	}
}

func TestBoot(t *testing.T) {
	c := Boot([]byte("hi\x00\x00"), 4, 2, 7)
	if c.PC != 7 || len(c.Regs) != 4 || c.Regs[2] != StackTop || c.Regs[0] != 0 {
		t.Errorf("boot state: pc=%d regs=%v", c.PC, c.Regs)
	}
	if s, _ := c.Mem.LoadCString(DataBase); s != "hi" {
		t.Errorf("data segment = %q", s)
	}
	c.Mem.Load(DataBase+2, 4) // runs past the 4-byte data segment
	if c.Mem.Fault() == nil {
		t.Error("access past the data segment must fault")
	}
}

func TestSignExtendTruncate(t *testing.T) {
	f := func(v int32) bool {
		return SignExtend(Truncate(int64(v), 32), 32) == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if SignExtend(0xFFFF, 16) != -1 {
		t.Errorf("SignExtend(0xFFFF,16) = %d", SignExtend(0xFFFF, 16))
	}
	if SignExtend(0x7FFF, 16) != 32767 {
		t.Errorf("SignExtend(0x7FFF,16) = %d", SignExtend(0x7FFF, 16))
	}
}

func TestPrintf(t *testing.T) {
	cpu := NewCPU(0)
	if err := cpu.Printf("%i\n", []int64{42}); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Printf("x=%d%%\n", []int64{-7}); err != nil {
		t.Fatal(err)
	}
	if got := cpu.Out.String(); got != "42\nx=-7%\n" {
		t.Errorf("out = %q", got)
	}
	if err := cpu.Printf("%q", nil); err == nil {
		t.Error("unsupported directive must error")
	}
	if err := cpu.Printf("%i", nil); err == nil {
		t.Error("missing argument must error")
	}
}

func TestLoadCString(t *testing.T) {
	m := NewMemory()
	for i, b := range []byte("hi\x00") {
		m.Store(uint64(500+i), 1, uint64(b))
	}
	s, err := m.LoadCString(500)
	if err != nil || s != "hi" {
		t.Errorf("LoadCString = %q, %v", s, err)
	}
}

func TestStepBudget(t *testing.T) {
	cpu := NewCPU(0)
	cpu.MaxSteps = 3
	for i := 0; i < 3; i++ {
		if err := cpu.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	if err := cpu.Tick(); err == nil {
		t.Error("budget exhaustion must error")
	}
}
