package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"srcg/internal/check"
	"srcg/internal/extract"
	"srcg/internal/obs"
	"srcg/internal/pool"
	"srcg/internal/probe"
)

// spanSink keeps the span events of a traced pass in memory — the
// pipeline's phase spans and the benchmark's own — and writes them out
// once the run is over. Probe-level events are dropped on arrival.
type spanSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *spanSink) Emit(e obs.Event) {
	if e.Kind != obs.KSpanBegin && e.Kind != obs.KSpanEnd {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *spanSink) Flush() error { return nil }

// writeChrome writes the spans as a Chrome trace-event file (loadable in
// Perfetto).
func (s *spanSink) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cs := obs.NewChromeSink(f)
	s.mu.Lock()
	for _, e := range s.events {
		cs.Emit(e)
	}
	s.mu.Unlock()
	if err := cs.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers is what a traced timed part measured at each layer's seam, for
// one target or, after add, for a whole pass.
type layers struct {
	wall time.Duration // the traced timed part

	// target: the meter.
	calls    [numOps]int64
	busy     [numOps]time.Duration
	distinct [numOps]int

	// Span self times: the pipeline's phases and the benchmark's spans.
	self map[string]time.Duration

	// probe: Discovery.ProbeStats and the tracer's cache counters.
	probe                    probe.Stats
	cacheHits, cacheMisses   int64
	cacheEntries, cacheBytes int64
	poolTasks                int64
	candidates               int64
	solved, unsolved         int
	mdErrors                 int
}

func (l *layers) addDiscovery(r discovered) {
	if r.tracer == nil {
		return
	}
	if l.self == nil {
		l.self = map[string]time.Duration{}
	}
	for _, ph := range r.tracer.PhaseSummary() {
		l.self[ph.Name] += ph.Self
	}
	l.cacheHits += r.tracer.Counter(probe.CtrCacheHits)
	l.cacheMisses += r.tracer.Counter(probe.CtrCacheMisses)
	l.poolTasks += r.tracer.Counter(pool.CtrTasks)
	l.candidates += r.tracer.Counter(extract.CtrCandidatesTried)
	for _, dg := range r.diags {
		if dg.Severity == check.Error {
			l.mdErrors++
		}
	}
	if r.d != nil {
		l.probe.Add(r.d.ProbeStats)
		l.solved += len(r.d.Outcome.Solved)
		l.unsolved += len(r.d.Outcome.Failed) + len(r.d.Dropped)
	}
}

func (l *layers) addMeter(m *meter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for op := range l.calls {
		l.calls[op] += m.calls[op].Load()
		l.busy[op] += m.busy[op]
		l.distinct[op] += len(m.distinct[op])
	}
}

// add folds another target's layers into l.
func (l *layers) add(o *layers) {
	l.wall += o.wall
	for op := range l.calls {
		l.calls[op] += o.calls[op]
		l.busy[op] += o.busy[op]
		l.distinct[op] += o.distinct[op]
	}
	if l.self == nil {
		l.self = map[string]time.Duration{}
	}
	for k, v := range o.self {
		l.self[k] += v
	}
	l.probe.Add(o.probe)
	l.cacheHits += o.cacheHits
	l.cacheMisses += o.cacheMisses
	l.cacheEntries += o.cacheEntries
	l.cacheBytes += o.cacheBytes
	l.poolTasks += o.poolTasks
	l.candidates += o.candidates
	l.solved += o.solved
	l.unsolved += o.unsolved
	l.mdErrors += o.mdErrors
}

// The benchmark's own spans, around the three calls of a discovery.
const (
	spanDiscover = "bench.discover"
	spanMDVerify = "bench.mdverify"
	spanValidate = "bench.validate"
)

// metrics renders the per-layer metrics of one traced pass.
func (l *layers) metrics(add func(name, unit string, v float64)) {
	for op, name := range opNames {
		add(fmt.Sprintf("target.%s_calls", name), "count", float64(l.calls[op]))
		add(fmt.Sprintf("target.%s_s", name), "s", l.busy[op].Seconds())
		if op != opCompile {
			add(fmt.Sprintf("target.%s_distinct_frac", name), "fraction", ratio(float64(l.distinct[op]), float64(l.calls[op])))
		}
	}
	add("probe.probes", "count", float64(l.probe.Probes))
	add("probe.attempts", "count", float64(l.probe.Attempts))
	add("probe.retries", "count", float64(l.probe.Retries))
	add("probe.quorum_runs", "count", float64(l.probe.QuorumRuns))
	add("probe.quorum_conflicts", "count", float64(l.probe.QuorumConflicts))
	add("probe.faults_survived", "count", float64(l.probe.FaultsSurvived))
	add("probe.cache_hits", "count", float64(l.cacheHits))
	add("probe.cache_hit_frac", "fraction", ratio(float64(l.cacheHits), float64(l.cacheHits+l.cacheMisses)))
	add("probe.cache_entries", "count", float64(l.cacheEntries))
	add("probe.cache_mb", "MB", float64(l.cacheBytes)/1e6)

	self := func(name string) float64 { return l.self[name].Seconds() }
	add("lexer.bootstrap_s", "s", self(obs.PhaseLexerBootstrap))
	add("lexer.bisection_s", "s", self(obs.PhaseAssemblerBisection))
	add("mutate.analysis_s", "s", self(obs.PhaseMutationAnalysis))
	add("extract.reverse_interp_s", "s", self(obs.PhaseReverseInterp))
	add("extract.candidates_tried", "count", float64(l.candidates))
	add("extract.solved_frac", "fraction", ratio(float64(l.solved), float64(l.solved+l.unsolved)))
	add("synth.synthesis_s", "s", self(obs.PhaseSynthesis))
	add("core.validate_s", "s", self(obs.PhaseValidation))
	add("check.mdverify_s", "s", self(spanMDVerify))
	add("check.md_errors", "count", float64(l.mdErrors))
	add("pool.tasks", "count", float64(l.poolTasks))

	// Every span's self time together against the traced wall time: how
	// much of the timed part the phases and benchmark spans account for.
	var spans time.Duration
	for _, d := range l.self {
		spans += d
	}
	add("trace.attributed_frac", "fraction", ratio(spans.Seconds(), l.wall.Seconds()))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
