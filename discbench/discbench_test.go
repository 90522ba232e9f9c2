package main

import (
	"bytes"
	"testing"
	"time"

	"srcg"
	"srcg/internal/obs"
)

// TestCountsRepeatAndDigestsAgree runs every workload at seeds 1 and 2.
// measure makes at least two passes, and each pass is an independent run
// — fresh targets, fresh caches and fault schedules, nothing shared but
// the process — so a clean report means the two runs gave identical
// toolchain_calls, solved_samples, valid_programs, code_instrs and MD
// digests. Across workloads, faulty, warm (full weights) and parallel
// must discover the same machine description as cold on every target.
func TestCountsRepeatAndDigestsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice at two seeds (minutes)")
	}
	for _, seed := range []int64{1, 2} {
		cold := map[string]string{}
		for _, w := range workloads {
			r, err := measure(w, seed, 0, false, &spanSink{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if len(r.passes) < 2 {
				t.Fatalf("%s seed %d: %d passes, want at least 2", w.name, seed, len(r.passes))
			}
			for _, p := range r.problems {
				t.Errorf("%s seed %d: %s", w.name, seed, p)
			}
			m := r.result.Metrics
			t.Logf("%s seed %d: toolchain_calls=%v solved_samples=%v valid_programs=%v code_instrs=%v",
				w.name, seed, m["toolchain_calls"].Value, m["solved_samples"].Value,
				m["valid_programs"].Value, m["code_instrs"].Value)
			if w.name == "cold" {
				cold = r.digests
				continue
			}
			for target, digest := range r.digests {
				if digest != cold[target] {
					t.Errorf("%s seed %d: %s MD %s, cold %s", w.name, seed, target, short(digest), short(cold[target]))
				}
			}
		}
	}
}

// TestMeterRaceFreeAndTransparent drives one target through the traced
// meter — per-call timing and content hashing on — with two pool workers,
// and requires the machine description of an unwrapped discovery. Run it
// under the race detector: go test -race -run Meter .
func TestMeterRaceFreeAndTransparent(t *testing.T) {
	const target = "vax"
	in, err := buildInputs(workload{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := lookupWorkload("parallel")
	if err != nil {
		t.Fatal(err)
	}
	tr := runTarget(par, 1, srcg.NewTarget(target), in.refs, true, obs.NewWallClock(), &spanSink{}, newCalibrated())
	for _, p := range tr.problems {
		t.Error(p)
	}
	d, err := srcg.Discover(srcg.NewTarget(target), srcg.Options{Seed: 1, Workers: par.workers})
	if err != nil {
		t.Fatal(err)
	}
	if want := mdDigest(d); tr.digest != want {
		t.Errorf("metered MD %s, unwrapped %s", short(tr.digest), short(want))
	}
	if tr.layer == nil || tr.layer.calls[opExecute] == 0 || tr.layer.distinct[opExecute] == 0 {
		t.Fatalf("traced meter recorded no executes: %+v", tr.layer)
	}
	if tr.layer.poolTasks == 0 {
		t.Error("parallel discovery fanned out no pool tasks")
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--trace", "2"},
		{"--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestCleanMedianSetsAsideDisturbedReadings(t *testing.T) {
	reading := func(wall, steal float64) cost {
		return cost{wall: time.Duration(wall * float64(time.Second)), steal: steal}
	}
	wall := func(c cost) float64 { return c.wall.Seconds() }
	mixed := []cost{reading(1.0, 0), reading(1.6, 0.5), reading(1.2, 0.01)}
	if got := cleanMedian(mixed, wall); got != 1.1 {
		t.Errorf("mixed readings: clean median %v, want 1.1", got)
	}
	disturbed := []cost{reading(1.5, 0.3), reading(1.7, 0.4), reading(1.6, 0.2)}
	if got := cleanMedian(disturbed, wall); got != 1.6 {
		t.Errorf("all disturbed: median %v, want 1.6", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}
