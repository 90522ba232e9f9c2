package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"srcg"
	"srcg/internal/cc"
	"srcg/internal/check"
	"srcg/internal/core"
	"srcg/internal/extract"
	"srcg/internal/faulty"
	"srcg/internal/ir"
	"srcg/internal/obs"
	"srcg/internal/probe"
	"srcg/internal/target"
)

// workload is one way of driving discovery over the five real targets.
type workload struct {
	name    string
	workers int  // Options.Workers
	faults  bool // route the toolchain through internal/faulty
	warm    bool // fill a probe cache in set-up, replay it under six weightings
}

var workloads = []workload{
	{name: "cold", workers: 1},
	{name: "faulty", workers: 1, faults: true},
	{name: "warm", workers: 1, warm: true},
	{name: "parallel", workers: 2},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Fault injection of the faulty workload: 10% transient faults, 10%
// scratch-register output noise.
const faultRate, faultNoise = 0.10, 0.10

// faultSeed derives one target's fault schedule from the run seed.
func faultSeed(seed int64, target int) int64 {
	return seed*1_000_003 + int64(target)*7_919 + 17
}

// weightings are the six likelihood configurations of the paper's §5.2.2
// ablation (experiment E16), replayed by the warm workload. The first is
// the default, the one whose machine description must match cold's.
var weightings = []struct {
	name string
	w    extract.Weights
}{
	{"full", extract.DefaultWeights},
	{"noM", withWeights(func(w *extract.Weights) { w.M = 0 })},
	{"noP", withWeights(func(w *extract.Weights) { w.P = 0 })},
	{"noG", withWeights(func(w *extract.Weights) { w.G = 0 })},
	{"noN", withWeights(func(w *extract.Weights) { w.N = 0 })},
	{"blind", extract.BlindWeights},
}

func withWeights(f func(*extract.Weights)) extract.Weights {
	w := extract.DefaultWeights
	f(&w)
	return w
}

// setupReps is how often a pass of a workload with a cheap set-up
// repeats it, back to back, so the set-up time is a median rather than one
// reading of a millisecond-long job.
const setupReps = 25

// inputs is what set-up produces for one pass: the validation suite's
// expected outputs from the reference interpreter, and one freshly
// constructed toolchain per target.
type inputs struct {
	refs map[string]string
	tcs  []target.Toolchain
}

// buildInputs constructs the pass's targets and the reference outputs.
func buildInputs(w workload, seed int64) (inputs, error) {
	in := inputs{refs: map[string]string{}}
	for _, p := range srcg.ValidationSuite {
		unit, err := cc.CompileUnit(p.Source)
		if err != nil {
			return in, fmt.Errorf("reference %s: %w", p.Name, err)
		}
		out, err := ir.Eval(unit)
		if err != nil {
			return in, fmt.Errorf("reference %s: %w", p.Name, err)
		}
		in.refs[p.Name] = out
	}
	for i, name := range srcg.TargetNames() {
		tc := srcg.NewTarget(name)
		if w.faults {
			tc = faulty.New(tc, faulty.Config{Seed: faultSeed(seed, i), Rate: faultRate, Noise: faultNoise})
		}
		in.tcs = append(in.tcs, tc)
	}
	return in, nil
}

// targetRun is what one target contributed to one pass.
type targetRun struct {
	target string
	fill   cost // warm: the cache fill, part of set-up
	cost   cost // the timed part

	calls      int64 // physical toolchain calls in the timed part
	solved     int   // samples solved, reference discovery
	valid      int   // validation programs matching the reference, reference discovery
	codeInstrs int64 // instructions assembled by Validate, reference discovery
	digest     string

	attempted, failed int // samples, programs and discoveries, all discoveries
	problems          []string

	layer *layers // traced passes only
}

// pass is one complete run of a workload over all five targets.
type pass struct {
	traced  bool
	setup   []float64 // set-up times, reference seconds
	targets []targetRun
	peakRSS int64 // bytes, the highest of the pass's readings
}

// runPass sets up and runs one pass. clock and spans are used only when
// traced.
func runPass(w workload, seed int64, traced bool, clock obs.Clock, spans *spanSink) (pass, error) {
	p := pass{traced: traced}
	reps := setupReps
	if w.warm {
		reps = 1 // the fill dominates set-up; one reading per pass
	}
	cal := newCalibrated()
	var in inputs
	var err error
	var times []time.Duration
	base := cal.measure(func() {
		for r := 0; r < reps && err == nil; r++ {
			start := time.Now()
			in, err = buildInputs(w, seed)
			times = append(times, time.Since(start))
		}
	})
	if err != nil {
		return p, err
	}
	for _, t := range times {
		p.setup = append(p.setup, t.Seconds()*base.scale)
	}
	p.peakRSS = base.peakRSS
	for _, tc := range in.tcs {
		tr := runTarget(w, seed, tc, in.refs, traced, clock, spans, cal)
		if w.warm {
			p.setup[0] += tr.fill.wall.Seconds() * tr.fill.scale
		}
		p.peakRSS = max(p.peakRSS, tr.fill.peakRSS, tr.cost.peakRSS)
		p.targets = append(p.targets, tr)
	}
	return p, nil
}

// runTarget runs one target's timed part (and, for warm, its set-up fill).
// A warm cache lives only as long as this call: the next reading's settle
// collects it.
func runTarget(w workload, seed int64, tc target.Toolchain, refs map[string]string,
	traced bool, clock obs.Clock, spans *spanSink, cal *calibrated) targetRun {
	m := newMeter(tc, traced)
	tr := targetRun{target: tc.Name()}
	if traced {
		tr.layer = &layers{}
	}
	opts := srcg.Options{Seed: seed, Workers: w.workers}
	var fillDigest string
	if w.warm {
		opts.Cache = probe.NewCache()
		var d *srcg.Discovery
		var err error
		tr.fill = cal.measure(func() { d, err = srcg.Discover(m, opts) })
		if err != nil {
			tr.attempted, tr.failed = 1, 1
			tr.problems = append(tr.problems, fmt.Sprintf("%s: cache fill: %v", tr.target, err))
			return tr
		}
		fillDigest = mdDigest(d)
		if traced {
			tr.layer.cacheEntries = int64(opts.Cache.Len())
			tr.layer.cacheBytes = opts.Cache.Bytes()
		}
	}
	configs := weightings[:1]
	if w.warm {
		configs = weightings
	}

	results := make([]discovered, len(configs))
	tr.cost = cal.measure(func() {
		m.open.Store(true)
		for i, c := range configs {
			o := opts
			o.Weights = c.w
			results[i] = discoverOnce(m, o, traced, clock, spans)
		}
		m.open.Store(false)
	})

	tr.calls = m.totalCalls()
	for i, r := range results {
		label := tr.target
		if w.warm {
			label += "/" + configs[i].name
		}
		tr.check(label, r, refs)
		if tr.layer != nil {
			tr.layer.addDiscovery(r)
		}
	}
	ref := results[0]
	if ref.d != nil {
		tr.solved = len(ref.d.Outcome.Solved)
		tr.codeInstrs = ref.codeInstrs
		tr.digest = mdDigest(ref.d)
		for _, v := range ref.results {
			if v.OK {
				tr.valid++
			}
		}
	}
	if w.warm && tr.digest != fillDigest {
		tr.problems = append(tr.problems, fmt.Sprintf("%s: replayed MD %s differs from the cache fill's %s",
			tr.target, short(tr.digest), short(fillDigest)))
	}
	if !w.warm && ref.d != nil {
		// Without a cache every probe attempt is a physical call, so the
		// meter and the probe layer must agree on the count.
		if want := ref.d.Trace.Counter(probe.CtrAttempts); want != tr.calls {
			tr.problems = append(tr.problems, fmt.Sprintf("%s: meter counted %d toolchain calls, probe layer %d attempts",
				tr.target, tr.calls, want))
		}
	}
	if tr.layer != nil {
		tr.layer.addMeter(m)
		tr.layer.wall = tr.cost.wall
	}
	return tr
}

// discovered is one Discover → MDVerify → Validate sequence.
type discovered struct {
	d       *srcg.Discovery
	err     error
	diags   []check.Diagnostic
	results []core.ValidationResult
	// codeInstrs counts the instructions of the units Validate assembled.
	codeInstrs int64
	tracer     *obs.Tracer // traced passes only
}

// discoverOnce runs the workload's command on one target: discovery, the
// machine-description verifier, and the validation suite. In a traced pass
// each of the three runs inside a benchmark span on a wall-clock tracer,
// which Discover and Validate also use for their phase spans.
func discoverOnce(m *meter, opts srcg.Options, traced bool, clock obs.Clock, spans *spanSink) discovered {
	var r discovered
	span := func(name string, fn func() error) error { return fn() }
	if traced {
		r.tracer = obs.New(clock, spans)
		opts.Trace = r.tracer
		span = r.tracer.Phase
	}
	r.err = span(spanDiscover, func() error {
		var err error
		r.d, err = srcg.Discover(m, opts)
		return err
	})
	if r.err != nil {
		return r
	}
	_ = span(spanMDVerify, func() error {
		r.diags = r.d.MDVerify()
		return nil
	})
	_ = span(spanValidate, func() error {
		base := m.codeInstrs.Load()
		m.validating.Store(true)
		r.results = r.d.Validate(m, srcg.ValidationSuite)
		m.validating.Store(false)
		r.codeInstrs = m.codeInstrs.Load() - base
		return nil
	})
	return r
}

// check applies the correctness checks to one discovery and counts its
// operations. Failed operations are unsolved or dropped samples, wrong or
// errored validation programs, and errored discoveries; a failure that is
// not the paper's declared limit (an uncovered operation the spec itself
// lists as a gap) is also a correctness problem.
func (tr *targetRun) check(label string, r discovered, refs map[string]string) {
	tr.attempted++ // the discovery
	if r.err != nil {
		tr.failed++
		tr.problems = append(tr.problems, fmt.Sprintf("%s: discovery failed: %v", label, r.err))
		return
	}
	d := r.d
	samples := len(d.Outcome.Solved) + len(d.Outcome.Failed) + len(d.Dropped)
	tr.attempted += samples
	tr.failed += samples - len(d.Outcome.Solved)
	for _, dg := range r.diags {
		if dg.Severity == check.Error {
			tr.problems = append(tr.problems, fmt.Sprintf("%s: MDVerify: %s", label, dg))
		}
	}
	if len(r.results) != len(srcg.ValidationSuite) {
		tr.problems = append(tr.problems, fmt.Sprintf("%s: %d validation results for %d programs",
			label, len(r.results), len(srcg.ValidationSuite)))
	}
	for _, v := range r.results {
		tr.attempted++
		want := refs[v.Program]
		switch {
		case v.Err != nil:
			tr.failed++
			if !(d.Spec != nil && len(d.Spec.Gaps) > 0 && strings.Contains(v.Err.Error(), "spec gap")) {
				tr.problems = append(tr.problems, fmt.Sprintf("%s: %s: %v", label, v.Program, v.Err))
			}
		case v.Got != want || !v.OK:
			tr.failed++
			tr.problems = append(tr.problems, fmt.Sprintf("%s: %s printed %q, reference %q",
				label, v.Program, v.Got, want))
		}
	}
}

// mdDigest identifies a discovered machine description: the sha256 of its
// rendered BEG specification.
func mdDigest(d *srcg.Discovery) string {
	if d == nil || d.Spec == nil {
		return ""
	}
	sum := sha256.Sum256([]byte(d.Spec.RenderBEG(d.Model)))
	return hex.EncodeToString(sum[:])
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
