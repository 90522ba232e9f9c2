package main

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"srcg/internal/asm"
	"srcg/internal/target"
)

// The four toolchain operations, in the order metrics name them.
const (
	opCompile = iota
	opAssemble
	opLink
	opExecute
	numOps
)

var opNames = [numOps]string{"compile", "assemble", "link", "execute"}

// meter wraps a target.Toolchain at the seam the discovery unit drives
// and counts the physical calls that cross it, per operation. It is safe
// for concurrent use (the parallel workload calls it from pool workers)
// and passes every call through unchanged.
//
// Counting happens only while the window is open (the timed part), so
// set-up work such as the warm cache fill never lands in a metric. The
// traced variant also times each call and identifies its input by content
// — assembly text for assembles, the ordered unit identities for links,
// the link identity for executes — to measure how much of the layer's
// work repeats an input it has already seen. Untraced meters do neither,
// so the end-to-end numbers carry no hashing or per-call timing.
type meter struct {
	inner  target.Toolchain
	traced bool

	open       atomic.Bool // counting window
	validating atomic.Bool // Validate is running: record code size
	calls      [numOps]atomic.Int64
	codeInstrs atomic.Int64

	// Traced-only state, guarded by mu.
	mu       sync.Mutex
	seed     maphash.Seed
	busy     [numOps]time.Duration
	distinct [numOps]map[uint64]struct{}
	// Content identities of the opaque handles the toolchain returned.
	// Weak keys, so the meter never keeps a unit or image alive.
	units  map[weak.Pointer[asm.Unit]]uint64
	images map[weak.Pointer[asm.Image]]uint64
}

var _ target.Toolchain = (*meter)(nil)

func newMeter(inner target.Toolchain, traced bool) *meter {
	m := &meter{inner: inner, traced: traced}
	if traced {
		m.seed = maphash.MakeSeed()
		for i := range m.distinct {
			m.distinct[i] = map[uint64]struct{}{}
		}
		m.units = map[weak.Pointer[asm.Unit]]uint64{}
		m.images = map[weak.Pointer[asm.Image]]uint64{}
	}
	return m
}

func (m *meter) Name() string { return m.inner.Name() }

// enter counts one call and, when traced, returns its start time.
func (m *meter) enter(op int) time.Time {
	counting := m.open.Load()
	if counting {
		m.calls[op].Add(1)
	}
	if !m.traced || !counting {
		return time.Time{}
	}
	return time.Now()
}

// leave records a traced call's busy time and input identity.
func (m *meter) leave(op int, start time.Time, key uint64) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	m.mu.Lock()
	m.busy[op] += d
	m.distinct[op][key] = struct{}{}
	m.mu.Unlock()
}

func (m *meter) CompileC(src string) (string, error) {
	start := m.enter(opCompile)
	out, err := m.inner.CompileC(src)
	if !start.IsZero() {
		m.leave(opCompile, start, maphash.String(m.seed, src))
	}
	return out, err
}

func (m *meter) Assemble(text string) (*asm.Unit, error) {
	start := m.enter(opAssemble)
	u, err := m.inner.Assemble(text)
	if u != nil && m.open.Load() && m.validating.Load() {
		m.codeInstrs.Add(int64(len(u.Instrs)))
	}
	if m.traced {
		key := maphash.String(m.seed, text)
		if u != nil {
			m.mu.Lock()
			m.units[weak.Make(u)] = key
			m.mu.Unlock()
		}
		m.leave(opAssemble, start, key)
	}
	return u, err
}

func (m *meter) Link(units []*asm.Unit) (*asm.Image, error) {
	start := m.enter(opLink)
	img, err := m.inner.Link(units)
	if m.traced {
		var h maphash.Hash
		h.SetSeed(m.seed)
		m.mu.Lock()
		var b [8]byte
		for _, u := range units {
			binary.LittleEndian.PutUint64(b[:], m.units[weak.Make(u)])
			h.Write(b[:])
		}
		key := h.Sum64()
		if img != nil {
			m.images[weak.Make(img)] = key
		}
		m.mu.Unlock()
		m.leave(opLink, start, key)
	}
	return img, err
}

func (m *meter) Execute(img *asm.Image) (string, error) {
	start := m.enter(opExecute)
	out, err := m.inner.Execute(img)
	if !start.IsZero() {
		m.mu.Lock()
		key := m.images[weak.Make(img)]
		m.mu.Unlock()
		m.leave(opExecute, start, key)
	}
	return out, err
}

// totalCalls sums the counted calls over all four operations.
func (m *meter) totalCalls() int64 {
	var n int64
	for i := range m.calls {
		n += m.calls[i].Load()
	}
	return n
}
