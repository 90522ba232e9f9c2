// Command discbench is the discovery benchmark: it drives the five real
// simulated targets through srcg.Discover, Discovery.MDVerify and
// Discovery.Validate under one of four workloads (cold, faulty, warm,
// parallel), checks every output, and prints the end-to-end metrics — or,
// with -trace 1, the per-layer metrics — as the last line of standard
// output. See README.md for the metrics, the workloads and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"srcg/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("discbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "cold", "workload: cold, faulty, warm or parallel")
	seed := fs.Int64("seed", 1, "discovery seed (sample generation, mutation analysis, fault schedule)")
	seconds := fs.Float64("seconds", 30, "measure passes until this many seconds have passed")
	trace := fs.Int("trace", 0, "1: alternate untraced and traced passes and report per-layer metrics")
	out := fs.String("out", ".bench_build/discbench", "directory for the run record and span trace (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "discbench: bad arguments: workload %q, trace %d, seconds %g\n", *name, *trace, *seconds)
		return 2
	}
	spans := &spanSink{}
	r, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, spans)
	if err != nil {
		fmt.Fprintf(stderr, "discbench: %v\n", err)
		return 1
	}
	for _, t := range r.passes[0].targets {
		fmt.Fprintf(stdout, "%-6s md=%s solved=%d valid=%d calls=%d code_instrs=%d\n",
			t.target, t.digest, t.solved, t.valid, t.calls, t.codeInstrs)
	}
	for i, p := range r.passes {
		var c cost
		for _, t := range p.targets {
			c.add(t.cost)
		}
		kind := "untraced"
		if p.traced {
			kind = "traced"
		}
		var scales []float64
		for _, t := range p.targets {
			scales = append(scales, t.cost.scale)
		}
		fmt.Fprintf(stdout, "pass %d %-8s wall=%.4fs cpu=%.4fs steal=%.2fs scale=%.3f alloc=%.1fMB gc=%d setup=%.6f ref-s\n",
			i, kind, c.wall.Seconds(), c.cpu.Seconds(), c.steal, median(scales),
			float64(c.allocB)/1e6, c.gcs, median(p.setup))
	}
	hostLine, _ := json.Marshal(r.host)
	fmt.Fprintf(stdout, "host: %s\n", hostLine)
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "discbench: check failed: %s\n", p)
	}
	if *out != "" {
		base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
		if err := r.write(base+".json", w.name, *seed); err != nil {
			fmt.Fprintf(stderr, "discbench: writing run record: %v\n", err)
			return 1
		}
		if *trace == 1 {
			if err := spans.writeChrome(base + ".spans.json"); err != nil {
				fmt.Fprintf(stderr, "discbench: writing spans: %v\n", err)
				return 1
			}
		}
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		fmt.Fprintf(stderr, "discbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !r.result.Correct {
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a finished run: its passes, the result line, and the context.
type report struct {
	passes   []pass
	result   result
	host     host
	problems []string
	digests  map[string]string
}

// measure runs passes of the workload until the budget has passed: at
// least two untraced passes, or with traced set, untraced and traced
// passes in alternation, at least one of each.
func measure(w workload, seed int64, budget time.Duration, traced bool, spans *spanSink) (*report, error) {
	clock := obs.NewWallClock()
	r := &report{host: hostContext()}
	start := time.Now()
	untraced, tracedN := 0, 0
	for i := 0; ; i++ {
		t := traced && i%2 == 1
		p, err := runPass(w, seed, t, clock, spans)
		if err != nil {
			return nil, err
		}
		r.passes = append(r.passes, p)
		if t {
			tracedN++
		} else {
			untraced++
		}
		enough := untraced >= 2 || (traced && untraced >= 1 && tracedN >= 1)
		if enough && time.Since(start) >= budget {
			break
		}
	}
	r.summarize(traced)
	return r, nil
}

// summarize checks the passes against each other and computes the
// metrics.
func (r *report) summarize(traced bool) {
	first := r.passes[0]
	r.digests = map[string]string{}
	for _, t := range first.targets {
		r.digests[t.target] = t.digest
	}
	res := result{Metrics: map[string]metric{}}
	for pi, p := range r.passes {
		for ti, t := range p.targets {
			r.problems = append(r.problems, t.problems...)
			res.Attempted += t.attempted
			res.Failed += t.failed
			r.host.StealS += t.cost.steal
			f := first.targets[ti]
			if pi > 0 && (t.digest != f.digest || t.calls != f.calls || t.solved != f.solved ||
				t.valid != f.valid || t.codeInstrs != f.codeInstrs) {
				r.problems = append(r.problems, fmt.Sprintf(
					"%s: pass %d differs from pass 0: md %s/%s calls %d/%d solved %d/%d valid %d/%d code_instrs %d/%d",
					t.target, pi, short(t.digest), short(f.digest), t.calls, f.calls, t.solved, f.solved,
					t.valid, f.valid, t.codeInstrs, f.codeInstrs))
			}
		}
	}
	res.Correct = len(r.problems) == 0

	add := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	plain := r.passesOf(false)
	wall := perTarget(plain, func(c cost) float64 { return c.wall.Seconds() * c.scale })
	cpu := perTarget(plain, func(c cost) float64 { return c.cpu.Seconds() * c.scale })
	if !traced {
		var setups, peaks []float64
		for _, p := range plain {
			setups = append(setups, p.setup...)
			peaks = append(peaks, float64(p.peakRSS)/1e6)
		}
		var calls, instrs int64
		var solved, valid int
		for _, t := range first.targets {
			calls += t.calls
			solved += t.solved
			valid += t.valid
			instrs += t.codeInstrs
		}
		add("setup_s", "s", median(setups))
		add("wall_s", "s", wall)
		add("cpu_s", "s", cpu)
		add("alloc_mb", "MB", perTarget(plain, func(c cost) float64 { return float64(c.allocB) / 1e6 }))
		add("peak_rss_mb", "MB", median(peaks))
		add("toolchain_calls", "count", float64(calls))
		add("solved_samples", "count", float64(solved))
		add("valid_programs", "count", float64(valid))
		add("code_instrs", "count", float64(instrs))
		add("failed_frac", "fraction", ratio(float64(res.Failed), float64(res.Attempted)))
		r.result = res
		return
	}

	var l layers
	for _, t := range r.passesOf(true)[0].targets {
		l.add(t.layer)
	}
	l.metrics(add)
	tracedWall := perTarget(r.passesOf(true), func(c cost) float64 { return c.wall.Seconds() * c.scale })
	add("trace_overhead_frac", "fraction", ratio(tracedWall, wall)-1)
	add("pool.busy_frac", "fraction", ratio(cpu, wall*float64(r.host.GOMAXPROCS)))
	add("go.gc_cycles", "count", perTarget(plain, func(c cost) float64 { return float64(c.gcs) }))
	add("go.gc_cpu_s", "s", perTarget(plain, func(c cost) float64 { return c.gcCPU }))
	add("go.alloc_objects", "count", perTarget(plain, func(c cost) float64 { return float64(c.allocN) }))
	r.result = res
}

// passesOf returns the traced or the untraced passes.
func (r *report) passesOf(traced bool) []pass {
	var out []pass
	for _, p := range r.passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// perTarget takes, for each target, the clean median of f over the
// passes, and sums the medians over targets. Taking the median per target
// rather than per pass means a burst of host contention moves one reading
// of one target instead of the whole pass.
func perTarget(passes []pass, f func(cost) float64) float64 {
	if len(passes) == 0 {
		return 0
	}
	total := 0.0
	for ti := range passes[0].targets {
		readings := make([]cost, len(passes))
		for pi, p := range passes {
			readings[pi] = p.targets[ti].cost
		}
		total += cleanMedian(readings, f)
	}
	return total
}

// stealTolerance is the share of a reading's wall time the hypervisor may
// have stolen before the reading counts as disturbed.
const stealTolerance = 0.02

// cleanMedian is the median of f over the readings the host did not
// disturb — those during which it stole at most stealTolerance of the
// wall time — or over all readings when every one was disturbed. Steal is
// recorded per reading in the run record, so what was set aside can be
// seen there.
func cleanMedian(readings []cost, f func(cost) float64) float64 {
	var clean, all []float64
	for _, c := range readings {
		v := f(c)
		all = append(all, v)
		if c.steal <= stealTolerance*c.wall.Seconds() {
			clean = append(clean, v)
		}
	}
	if len(clean) == 0 {
		return median(all)
	}
	return median(clean)
}

// write stores the run record: result, host context, MD digests, and
// every reading of every pass.
func (r *report) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	// Target readings are as measured; scale converts them to reference
	// seconds. Set-up times are already in reference seconds.
	type reading struct {
		Target string  `json:"target"`
		WallS  float64 `json:"wall_s"`
		CPUS   float64 `json:"cpu_s"`
		StealS float64 `json:"steal_s"`
		Scale  float64 `json:"scale"`
	}
	type passRecord struct {
		Traced    bool      `json:"traced"`
		PeakRSSMB float64   `json:"peak_rss_mb"`
		SetupS    []float64 `json:"setup_s"`
		Targets   []reading `json:"targets"`
	}
	var passes []passRecord
	for _, p := range r.passes {
		pr := passRecord{Traced: p.traced, PeakRSSMB: float64(p.peakRSS) / 1e6, SetupS: p.setup}
		for _, t := range p.targets {
			c := t.cost
			pr.Targets = append(pr.Targets, reading{t.target, c.wall.Seconds(), c.cpu.Seconds(), c.steal, c.scale})
		}
		passes = append(passes, pr)
	}
	rec := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Host     host              `json:"host"`
		Digests  map[string]string `json:"md_sha256"`
		Problems []string          `json:"problems"`
		Result   result            `json:"result"`
		Passes   []passRecord      `json:"passes"`
	}{workload, seed, r.host, r.digests, r.problems, r.result, passes}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
