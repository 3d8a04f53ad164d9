package perf

import "fmt"

// Thresholds bound how much worse a metric may get before the gate
// fails. Wall-time thresholds are deliberately loose — shared CI boxes
// jitter by tens of percent — while allocation counts are deterministic
// and get a tight absolute bound.
type Thresholds struct {
	// NsPerOpFrac fails a benchmark whose ns/op grew by more than this
	// fraction over the baseline. Default 0.35.
	NsPerOpFrac float64
	// AllocsPerOpAbs fails a benchmark whose allocs/op grew by more than
	// this many allocations. Default 0.5 — any new steady-state
	// allocation trips it, calibration noise does not.
	AllocsPerOpAbs float64
	// AllocsPerOpFrac loosens the absolute alloc bound for macro
	// benchmarks: the effective limit is max(AllocsPerOpAbs,
	// AllocsPerOpFrac × baseline). A per-frame micro-bench (tens of
	// allocs) still trips on any new steady-state allocation, while an
	// experiment-level bench (millions of allocs per op, where map
	// growth and timer scheduling drift by parts per million between
	// runs) only trips on a real leak. Default 0.001 (0.1%).
	AllocsPerOpFrac float64
	// FramesFrac fails a benchmark whose frames/s dropped by more than
	// this fraction. Default 0.30.
	FramesFrac float64
}

// defaultThresholds returns the standard gate settings.
func defaultThresholds() Thresholds {
	return Thresholds{NsPerOpFrac: 0.35, AllocsPerOpAbs: 0.5, AllocsPerOpFrac: 0.001, FramesFrac: 0.30}
}

// withDefaults fills zero fields so a partially-set Thresholds behaves
// sanely.
func (t Thresholds) withDefaults() Thresholds {
	d := defaultThresholds()
	if t.NsPerOpFrac <= 0 {
		t.NsPerOpFrac = d.NsPerOpFrac
	}
	if t.AllocsPerOpAbs <= 0 {
		t.AllocsPerOpAbs = d.AllocsPerOpAbs
	}
	if t.AllocsPerOpFrac <= 0 {
		t.AllocsPerOpFrac = d.AllocsPerOpFrac
	}
	if t.FramesFrac <= 0 {
		t.FramesFrac = d.FramesFrac
	}
	return t
}

// Delta is one metric's old-vs-new comparison.
type Delta struct {
	Name      string // benchmark name
	Metric    string // "ns_per_op", "allocs_per_op", "frames_per_sec", "missing"
	Old, New  float64
	Regressed bool
	Note      string
}

// String renders a delta as one gate-report line.
func (d Delta) String() string {
	verdict := "ok"
	if d.Regressed {
		verdict = "REGRESSION"
	}
	if d.Metric == "missing" {
		return fmt.Sprintf("%-28s %-14s %s (%s)", d.Name, d.Metric, verdict, d.Note)
	}
	return fmt.Sprintf("%-28s %-14s %12.1f -> %12.1f  %s%s",
		d.Name, d.Metric, d.Old, d.New, verdict, d.Note)
}

// Compare gates a new trajectory point against a baseline. Every
// benchmark present in the baseline must still exist — a vanished
// benchmark is itself a regression (deleting the slow case is not a
// fix). Benchmarks only present in the new file pass silently; a
// baseline with zero ns/op skips the ratio checks for that benchmark
// (nothing meaningful to compare against). Improvements always pass.
func Compare(oldF, newF File, th Thresholds) []Delta {
	th = th.withDefaults()
	var deltas []Delta
	for _, ob := range oldF.Results {
		nb, ok := newF.Find(ob.Name)
		if !ok {
			deltas = append(deltas, Delta{
				Name: ob.Name, Metric: "missing", Regressed: true,
				Note: "present in baseline, absent in new run",
			})
			continue
		}
		if ob.NsPerOp > 0 {
			frac := nb.NsPerOp/ob.NsPerOp - 1
			deltas = append(deltas, Delta{
				Name: ob.Name, Metric: "ns_per_op",
				Old: ob.NsPerOp, New: nb.NsPerOp,
				Regressed: frac > th.NsPerOpFrac,
				Note:      fmt.Sprintf(" (%+.0f%%, limit +%.0f%%)", frac*100, th.NsPerOpFrac*100),
			})
		}
		allocLimit := th.AllocsPerOpAbs
		if frac := th.AllocsPerOpFrac * ob.AllocsPerOp; frac > allocLimit {
			allocLimit = frac
		}
		deltas = append(deltas, Delta{
			Name: ob.Name, Metric: "allocs_per_op",
			Old: ob.AllocsPerOp, New: nb.AllocsPerOp,
			Regressed: nb.AllocsPerOp > ob.AllocsPerOp+allocLimit,
			Note:      fmt.Sprintf(" (limit +%.1f)", allocLimit),
		})
		if ob.FramesPerSec > 0 && nb.FramesPerSec > 0 {
			frac := 1 - nb.FramesPerSec/ob.FramesPerSec
			deltas = append(deltas, Delta{
				Name: ob.Name, Metric: "frames_per_sec",
				Old: ob.FramesPerSec, New: nb.FramesPerSec,
				Regressed: frac > th.FramesFrac,
				Note:      fmt.Sprintf(" (%+.0f%%, limit -%.0f%%)", -frac*100, th.FramesFrac*100),
			})
		}
	}
	return deltas
}

// Regressions filters deltas down to the failing ones.
func Regressions(deltas []Delta) []Delta {
	var bad []Delta
	for _, d := range deltas {
		if d.Regressed {
			bad = append(bad, d)
		}
	}
	return bad
}
