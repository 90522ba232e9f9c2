package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Trajectory mirrors BENCH_discover.json: an append-only series of
// benchmark runs, one entry per recording, each mapping target/variant
// keys ("vax/clean") to measured results. cmd/benchdiff compares two of
// these — the cross-PR comparison step the bench trajectory was started
// for.
type Trajectory struct {
	Benchmark   string          `json:"benchmark"`
	Description string          `json:"description,omitempty"`
	Runs        []TrajectoryRun `json:"runs"`
}

// TrajectoryRun is one recorded benchmark run. CPU, NumCPU and GOMAXPROCS
// are the hardware context its numbers were measured in; runs recorded
// before the core counts were kept leave them zero.
type TrajectoryRun struct {
	Date       string                      `json:"date,omitempty"`
	Go         string                      `json:"go,omitempty"`
	CPU        string                      `json:"cpu,omitempty"` // CPU model name
	NumCPU     int                         `json:"num_cpu,omitempty"`
	GOMAXPROCS int                         `json:"gomaxprocs,omitempty"`
	Results    map[string]TrajectoryResult `json:"results"`
}

// ContextMismatch reports why two runs' numbers cannot be compared: both
// record a core count or GOMAXPROCS and the values disagree. A run that
// does not record a field is comparable on it, so older runs compare as
// they always did.
func ContextMismatch(old, new TrajectoryRun) error {
	var diffs []string
	if old.NumCPU != 0 && new.NumCPU != 0 && old.NumCPU != new.NumCPU {
		diffs = append(diffs, fmt.Sprintf("num_cpu %d vs %d", old.NumCPU, new.NumCPU))
	}
	if old.GOMAXPROCS != 0 && new.GOMAXPROCS != 0 && old.GOMAXPROCS != new.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("gomaxprocs %d vs %d", old.GOMAXPROCS, new.GOMAXPROCS))
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("runs measured in different hardware contexts (%s); rerun on matching hardware", strings.Join(diffs, ", "))
}

// TrajectoryResult is one target/variant's measurements. Phases maps
// phase name → exclusive nanoseconds (the obs phase attribution).
type TrajectoryResult struct {
	NsPerOp    float64            `json:"ns_per_op"`
	Executions float64            `json:"executions,omitempty"`
	Attempts   float64            `json:"attempts,omitempty"`
	Retries    float64            `json:"retries,omitempty"`
	Solved     float64            `json:"solved,omitempty"`
	Phases     map[string]float64 `json:"phases,omitempty"`
}

// ParseTrajectory decodes a trajectory file.
func ParseTrajectory(data []byte) (*Trajectory, error) {
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("trajectory: %w", err)
	}
	if len(t.Runs) == 0 {
		return nil, fmt.Errorf("trajectory: no runs recorded")
	}
	return &t, nil
}

// Last returns the most recent run.
func (t *Trajectory) Last() TrajectoryRun { return t.Runs[len(t.Runs)-1] }

// Delta statuses: a row compared against a baseline carries the empty
// status; a target or phase present in only one run is reported as
// added (new run only) or removed (baseline only) instead of being
// silently dropped — a renamed phase or a new target in a trajectory
// is itself a finding.
const (
	DeltaAdded   = "added"
	DeltaRemoved = "removed"
)

// Delta is one compared measurement. Phase is "" for the whole-run
// ns_per_op row. Ratio is new/old; Regressed marks ratios beyond the
// diff threshold. Status is "" for compared rows, DeltaAdded/DeltaRemoved
// for baseline-free rows (which are never Regressed — there is nothing
// to regress against).
type Delta struct {
	Target    string
	Phase     string
	Old, New  float64
	Ratio     float64
	Regressed bool
	Status    string
}

// DiffRuns compares two runs target by target and phase by phase.
// threshold is the regression ratio margin: a measurement counts as
// regressed when new > old*(1+threshold). Targets or phases present in
// only one run become added/removed rows; the deltas come back sorted
// by target then phase, whole-run rows first.
func DiffRuns(old, new TrajectoryRun, threshold float64) []Delta {
	var out []Delta
	targetSet := map[string]bool{}
	for name := range old.Results {
		targetSet[name] = true
	}
	for name := range new.Results {
		targetSet[name] = true
	}
	targets := make([]string, 0, len(targetSet))
	for name := range targetSet {
		targets = append(targets, name)
	}
	sort.Strings(targets)
	for _, name := range targets {
		o, inOld := old.Results[name]
		n, inNew := new.Results[name]
		switch {
		case !inOld:
			out = append(out, Delta{Target: name, New: n.NsPerOp, Ratio: 1, Status: DeltaAdded})
			continue
		case !inNew:
			out = append(out, Delta{Target: name, Old: o.NsPerOp, Ratio: 1, Status: DeltaRemoved})
			continue
		}
		out = append(out, makeDelta(name, "", o.NsPerOp, n.NsPerOp, threshold))
		phaseSet := map[string]bool{}
		for ph := range o.Phases {
			phaseSet[ph] = true
		}
		for ph := range n.Phases {
			phaseSet[ph] = true
		}
		phases := make([]string, 0, len(phaseSet))
		for ph := range phaseSet {
			phases = append(phases, ph)
		}
		sort.Strings(phases)
		for _, ph := range phases {
			ov, inO := o.Phases[ph]
			nv, inN := n.Phases[ph]
			switch {
			case !inO:
				out = append(out, Delta{Target: name, Phase: ph, New: nv, Ratio: 1, Status: DeltaAdded})
			case !inN:
				out = append(out, Delta{Target: name, Phase: ph, Old: ov, Ratio: 1, Status: DeltaRemoved})
			default:
				out = append(out, makeDelta(name, ph, ov, nv, threshold))
			}
		}
	}
	return out
}

func makeDelta(target, phase string, old, new, threshold float64) Delta {
	d := Delta{Target: target, Phase: phase, Old: old, New: new}
	if old > 0 {
		d.Ratio = new / old
	} else if new > 0 {
		d.Ratio = math.Inf(1)
	} else {
		d.Ratio = 1
	}
	d.Regressed = d.Ratio > 1+threshold
	return d
}

// Regressions filters a diff down to the regressed rows.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// FormatDiff renders a diff as a human-readable table: one block per
// target, whole-run row first, indented per-phase rows after, regressed
// rows tagged. Durations render in milliseconds for readability.
func FormatDiff(deltas []Delta) string {
	if len(deltas) == 0 {
		return "benchdiff: no comparable targets\n"
	}
	var sb strings.Builder
	for _, d := range deltas {
		label := d.Target
		if d.Phase != "" {
			label = "  " + d.Phase
		}
		switch d.Status {
		case DeltaAdded:
			fmt.Fprintf(&sb, "%-28s %12s -> %12.1fms  (no baseline: added)\n",
				label, "-", d.New/1e6)
			continue
		case DeltaRemoved:
			fmt.Fprintf(&sb, "%-28s %12.1fms -> %12s  (gone in new run: removed)\n",
				label, d.Old/1e6, "-")
			continue
		}
		tag := ""
		if d.Regressed {
			tag = "  REGRESSION"
		}
		fmt.Fprintf(&sb, "%-28s %12.1fms -> %12.1fms  %+6.1f%%%s\n",
			label, d.Old/1e6, d.New/1e6, 100*(d.Ratio-1), tag)
	}
	return sb.String()
}
