// Command benchdiff compares two bench-trajectory files (the
// BENCH_discover.json format: recorded runs of BenchmarkDiscoverEndToEnd
// with per-phase attribution) and reports per-target and per-phase
// deltas, flagging regressions beyond a threshold.
//
// Usage:
//
//	benchdiff [-threshold 0.10] [-quiet] old.json new.json
//	benchdiff -self trajectory.json     # compare the last two runs of one file
//
// By default the last run of each file is compared. Exit status is 0
// when nothing regressed, 1 on regression, 2 on usage or parse errors,
// and 3 when the two runs record different core counts or GOMAXPROCS:
// their numbers measure different hardware and are not compared.
// The threshold is a ratio margin: 0.10 flags anything >10% slower.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"srcg/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Exit statuses.
const (
	exitOK         = 0
	exitRegression = 1
	exitUsage      = 2
	exitContext    = 3
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.10, "regression ratio margin (0.10 = flag >10% slower)")
	self := fs.Bool("self", false, "compare the last two runs of a single trajectory file")
	quiet := fs.Bool("quiet", false, "print only regressions")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	var old, new obs.TrajectoryRun
	switch {
	case *self && fs.NArg() == 1:
		t, err := load(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return exitUsage
		}
		if len(t.Runs) < 2 {
			fmt.Fprintf(stderr, "benchdiff: %s has %d run(s); -self needs two\n", fs.Arg(0), len(t.Runs))
			return exitUsage
		}
		old, new = t.Runs[len(t.Runs)-2], t.Runs[len(t.Runs)-1]
	case !*self && fs.NArg() == 2:
		to, err := load(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return exitUsage
		}
		tn, err := load(fs.Arg(1))
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return exitUsage
		}
		old, new = to.Last(), tn.Last()
	default:
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold 0.10] old.json new.json | benchdiff -self trajectory.json")
		return exitUsage
	}
	if err := obs.ContextMismatch(old, new); err != nil {
		fmt.Fprintf(stderr, "benchdiff: refusing to compare: %v\n", err)
		return exitContext
	}

	deltas := obs.DiffRuns(old, new, *threshold)
	regressed := obs.Regressions(deltas)
	if *quiet {
		deltas = regressed
	}
	fmt.Fprint(stdout, obs.FormatDiff(deltas))
	if len(regressed) > 0 {
		fmt.Fprintf(stdout, "benchdiff: %d regression(s) beyond %.0f%%\n", len(regressed), *threshold*100)
		return exitRegression
	}
	fmt.Fprintln(stdout, "benchdiff: no regressions")
	return exitOK
}

func load(path string) (*obs.Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := obs.ParseTrajectory(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return t, nil
}
