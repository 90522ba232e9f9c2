// Package machine provides the execution substrate shared by every
// simulated target: byte-addressed memory, a register file, and the CPU
// state that the per-architecture executors step. It plays the role of the
// physical hardware that the paper's discovery unit reaches over rsh.
package machine

import (
	"fmt"
	"strings"
)

// Memory is byte-addressed memory with optional access bounds. Each bound
// is backed by a flat segment, allocated lazily from the top of its range
// down (stacks grow downward, so a run touches only the frames it uses);
// addresses outside every segment live in a sparse map, so unbounded
// memory, and the bytes a faulting access spills past a bound, still
// work. Out-of-bounds accesses latch a fault that the executor surfaces
// after the offending step — like a real machine's segmentation
// violation, this is what makes clobbered frame pointers *observable* to
// mutation analysis.
type Memory struct {
	segs   []segment // the bounds, in AddBound order; empty = unbounded
	sparse map[uint64]byte
	fault  error
}

// segment backs the bound [start, end). buf holds [lo, end); bytes in
// [start, lo) have never been written and read as zero.
type segment struct {
	start, end, lo uint64
	buf            []byte
}

// segChunk is the granule a segment grows by, downward from its top.
const segChunk = 256

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// AddBound allows accesses in [start, end).
func (m *Memory) AddBound(start, end uint64) {
	m.segs = append(m.segs, segment{start: start, end: end, lo: end})
}

// Fault returns the first out-of-bounds access error, if any.
func (m *Memory) Fault() error { return m.fault }

func (m *Memory) check(addr uint64, size int) {
	if m.fault != nil || len(m.segs) == 0 {
		return
	}
	for _, s := range m.segs {
		if addr >= s.start && addr+uint64(size) <= s.end {
			return
		}
	}
	m.fault = fmt.Errorf("machine: memory access fault at %#x", addr)
}

// within returns the segment that holds all of [addr, addr+size), or nil.
// Such an access is in bounds, so it cannot fault. A byte for which
// within(addr, 1) is nil lives in the sparse map.
func (m *Memory) within(addr uint64, size int) *segment {
	end := addr + uint64(size)
	if end < addr {
		return nil
	}
	for i := range m.segs {
		if s := &m.segs[i]; addr >= s.start && end <= s.end {
			return s
		}
	}
	return nil
}

// grow backs the segment down to addr, which lies in [start, lo).
func (s *segment) grow(addr uint64) {
	size := uint64(2 * len(s.buf))
	if need := s.end - addr&^(segChunk-1); need > size {
		size = need
	}
	if size < segChunk {
		size = segChunk
	}
	if size > s.end-s.start {
		size = s.end - s.start
	}
	buf := make([]byte, size)
	copy(buf[uint64(len(buf))-uint64(len(s.buf)):], s.buf)
	s.buf, s.lo = buf, s.end-size
}

// bytes returns the backing of [addr, addr+size) inside the segment,
// growing it first when write is set; a read below the backed part
// returns nil (never-written memory reads as zero).
func (s *segment) bytes(addr uint64, size int, write bool) []byte {
	if addr < s.lo {
		if !write && addr+uint64(size) <= s.lo {
			return nil
		}
		s.grow(addr)
	}
	off := addr - s.lo
	return s.buf[off : off+uint64(size)]
}

func (m *Memory) byteAt(addr uint64) byte {
	if s := m.within(addr, 1); s != nil {
		if addr < s.lo {
			return 0
		}
		return s.buf[addr-s.lo]
	}
	return m.sparse[addr]
}

func (m *Memory) setByte(addr uint64, b byte) {
	if s := m.within(addr, 1); s != nil {
		s.bytes(addr, 1, true)[0] = b
		return
	}
	if m.sparse == nil {
		m.sparse = map[uint64]byte{}
	}
	m.sparse[addr] = b
}

// Load reads a little-endian value of size bytes at addr.
func (m *Memory) Load(addr uint64, size int) uint64 {
	var v uint64
	if s := m.within(addr, size); s != nil {
		for i, b := range s.bytes(addr, size, false) {
			v |= uint64(b) << (8 * i)
		}
		return v
	}
	m.check(addr, size)
	for i := 0; i < size; i++ {
		v |= uint64(m.byteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Store writes a little-endian value of size bytes at addr.
func (m *Memory) Store(addr uint64, size int, v uint64) {
	if s := m.within(addr, size); s != nil {
		b := s.bytes(addr, size, true)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		return
	}
	m.check(addr, size)
	for i := 0; i < size; i++ {
		m.setByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// StoreBytes copies data to addr without a bounds check: it is how a
// loader places an image's static data, not a program access.
func (m *Memory) StoreBytes(addr uint64, data []byte) {
	if s := m.within(addr, len(data)); s != nil && len(data) > 0 {
		copy(s.bytes(addr, len(data), true), data)
		return
	}
	for i, b := range data {
		m.setByte(addr+uint64(i), b)
	}
}

// LoadCString reads a NUL-terminated string at addr (bounded at 64KiB to
// catch runaway pointers in buggy generated code).
func (m *Memory) LoadCString(addr uint64) (string, error) {
	var sb strings.Builder
	for i := 0; i < 1<<16; i++ {
		b := m.byteAt(addr + uint64(i))
		if b == 0 {
			return sb.String(), nil
		}
		sb.WriteByte(b)
	}
	return "", fmt.Errorf("machine: unterminated string at %#x", addr)
}

// SignExtend interprets the low `bits` bits of v as a signed integer.
func SignExtend(v uint64, bits int) int64 {
	shift := 64 - bits
	return int64(v<<shift) >> shift
}

// Truncate keeps the low `bits` bits of v.
func Truncate(v int64, bits int) uint64 {
	if bits >= 64 {
		return uint64(v)
	}
	return uint64(v) & (1<<bits - 1)
}

// Layout constants shared by all simulated targets.
const (
	DataBase  = 0x10000  // static data segment start
	StackTop  = 0x800000 // initial stack pointer
	StackSize = 0x10000  // reserved stack region (for bounds checks)
)

// CPU is the mutable machine state stepped by an architecture executor.
type CPU struct {
	// Regs is the register file, indexed by the slot each target's
	// decoder resolves a register operand to (asm.Arg.Slot).
	Regs   []int64
	Mem    *Memory
	PC     int // index into the linked instruction stream
	Halted bool
	Exit   int

	// Condition state for architectures with a compare/branch split
	// (SPARC cmp+be, VAX tstl+jeql, x86 cmpl+je).
	CCValid bool
	CCa     int64
	CCb     int64

	// Hidden registers (e.g. MIPS hi/lo) live here, invisible to the
	// assembly-level register namespace.
	Hidden [2]int64

	// Call stack of return PCs for architectures that keep return
	// addresses outside the general register file (VAX-style calls).
	RetStack []int

	Out      strings.Builder
	Steps    int64
	MaxSteps int64
}

// NewCPU returns a CPU with nregs zeroed registers, an empty memory, and
// the default step budget.
func NewCPU(nregs int) *CPU {
	return &CPU{
		Regs:     make([]int64, nregs),
		Mem:      NewMemory(),
		MaxSteps: 2_000_000,
	}
}

// Boot returns a CPU ready to run a linked program: memory bounded to the
// static data segment [DataBase, DataBase+len(data)) holding data and to
// the stack below StackTop, nregs zeroed registers except the stack
// pointer in slot sp, and the PC at entry.
func Boot(data []byte, nregs, sp, entry int) *CPU {
	c := NewCPU(nregs)
	c.Mem.AddBound(DataBase, DataBase+uint64(len(data)))
	c.Mem.AddBound(StackTop-StackSize, StackTop)
	c.Mem.StoreBytes(DataBase, data)
	c.Regs[sp] = StackTop
	c.PC = entry
	return c
}

// Tick consumes one step of the budget; it returns an error when the budget
// is exhausted (runaway mutated samples must terminate).
func (c *CPU) Tick() error {
	c.Steps++
	if c.Steps > c.MaxSteps {
		return fmt.Errorf("machine: step budget exceeded (%d)", c.MaxSteps)
	}
	return nil
}

// Printf implements the runtime printf used by samples: only the directives
// the Generator emits (%i, %d, %%) are supported.
func (c *CPU) Printf(format string, args []int64) error {
	argi := 0
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' {
			c.Out.WriteByte(ch)
			continue
		}
		i++
		if i >= len(format) {
			return fmt.Errorf("machine: trailing %% in printf format")
		}
		switch format[i] {
		case 'i', 'd':
			if argi >= len(args) {
				return fmt.Errorf("machine: printf missing argument %d", argi)
			}
			fmt.Fprintf(&c.Out, "%d", args[argi])
			argi++
		case '%':
			c.Out.WriteByte('%')
		default:
			return fmt.Errorf("machine: unsupported printf directive %%%c", format[i])
		}
	}
	return nil
}
