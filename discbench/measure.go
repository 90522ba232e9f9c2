package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Go runtime metrics read at every timed-part boundary. Reading them does
// not stop the world, unlike runtime.ReadMemStats.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// point is the process state at one boundary of a timed part.
type point struct {
	wall    time.Time
	cpu     time.Duration // user+sys of the whole process
	allocB  uint64
	allocN  uint64
	gcs     uint64
	gcCPU   float64
	stealTk int64 // host steal, clock ticks since boot
}

// cost is the difference between two points: what one timed part used.
type cost struct {
	wall, cpu    time.Duration
	allocB       uint64
	allocN       uint64
	gcs          uint64
	gcCPU, steal float64 // seconds
	peakRSS      int64   // bytes, the resident high-water mark of the part
	// scale converts this part's times to reference seconds: the
	// calibration job's reference time over its measured time around the
	// part.
	scale float64
}

func readPoint() point {
	var p point
	p.stealTk = stealTicks()
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	p.allocB = samples[0].Value.Uint64()
	p.allocN = samples[1].Value.Uint64()
	p.gcs = samples[2].Value.Uint64()
	p.gcCPU = samples[3].Value.Float64()
	p.cpu = processCPU()
	p.wall = time.Now()
	return p
}

// since measures from start to now. The wall clock is read first, so the
// reads of the other counters stay outside the measured interval.
func since(start point) cost {
	wall := time.Since(start.wall)
	end := readPoint()
	return cost{
		wall:   wall,
		cpu:    end.cpu - start.cpu,
		allocB: end.allocB - start.allocB,
		allocN: end.allocN - start.allocN,
		gcs:    end.gcs - start.gcs,
		gcCPU:  end.gcCPU - start.gcCPU,
		steal:  float64(end.stealTk-start.stealTk) / clockTicks,
	}
}

func (c *cost) add(o cost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.allocB += o.allocB
	c.allocN += o.allocN
	c.gcs += o.gcs
	c.gcCPU += o.gcCPU
	c.steal += o.steal
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (Linux
// 4.0 and later), so the next peakRSSBytes covers only what follows.
// Where the reset is unavailable, readings are process-lifetime peaks.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes is the process's peak resident set size since the last
// resetPeakRSS: VmHWM from /proc/self/status, or getrusage's lifetime
// ru_maxrss (KiB on Linux) where that is unavailable.
func peakRSSBytes() int64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}

// settle collects garbage and returns the freed memory to the operating
// system, so a timed part starts from a heap that holds only live data and
// owes the collector no work, and its resident high-water mark is its own.
func settle() {
	debug.FreeOSMemory()
}

// calibrationRef is the calibration job's time on the reference host.
// Times are reported in reference seconds: seconds on a host that runs
// the job in exactly this long.
const calibrationRef = 100 * time.Millisecond

var calibrationSink uint64

// calibrate times a fixed job that shares no code with the program under
// test: it fills a map with 400k pseudo-random keys, reads each back and
// sorts them, with the collector at its default setting whatever the
// program set. Map-heavy like the simulated machines, it slows and speeds
// up with the host — by a quarter or more within minutes on a shared
// 2-vCPU VM — while the program's work stays the same.
func calibrate() time.Duration {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	start := time.Now()
	const n = 400_000
	m := map[uint64]uint64{}
	keys := make([]uint64, 0, n)
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x] = uint64(i)
		keys = append(keys, x)
	}
	var sum uint64
	for _, k := range keys {
		sum += m[k]
	}
	slices.Sort(keys)
	calibrationSink = sum + keys[n/2]
	return time.Since(start)
}

// calibrated takes readings between calibration jobs. Each reading starts
// from a settled heap with a fresh RSS high-water mark, and its scale comes
// from the jobs just before and just after it; consecutive readings share
// the job between them.
type calibrated struct {
	last time.Duration
}

func newCalibrated() *calibrated {
	return &calibrated{last: calibrate()}
}

// measure takes one reading of fn.
func (c *calibrated) measure(fn func()) cost {
	settle()
	resetPeakRSS()
	start := readPoint()
	fn()
	r := since(start)
	r.peakRSS = peakRSSBytes()
	after := calibrate()
	r.scale = 2 * float64(calibrationRef) / float64(c.last+after)
	c.last = after
	return r
}

// clockTicks is USER_HZ, the unit of /proc/stat; 100 on every Linux ABI
// Go supports.
const clockTicks = 100

// stealTicks reads the host's steal time (field 8 of the aggregate cpu
// line of /proc/stat): time this machine's virtual CPUs were runnable but
// the hypervisor ran something else. 0 where /proc/stat is unavailable.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// host records the context a run was measured in. It is stored next to
// the results and never gated on.
type host struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealS     float64 `json:"steal_s"` // over the timed parts of the run
}

func hostContext() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
