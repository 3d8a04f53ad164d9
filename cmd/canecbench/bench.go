package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"canec/internal/obs/perf"
	"canec/internal/obs/perf/suite"
)

// benchFlags collects the trajectory-recorder and regression-gate
// options; main dispatches here when any of them is set.
type benchFlags struct {
	jsonLabel  string
	benchDir   string
	bench      string
	benchTime  time.Duration
	iters      int
	compare    string
	profile    int
	nsFrac     float64
	allocsAbs  float64
	framesFrac float64
}

// selectCases resolves the -bench filter (comma-separated names,
// default all).
func selectCases(filter string) ([]perf.Case, error) {
	if filter == "" {
		return suite.Cases(), nil
	}
	var cases []perf.Case
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		c, ok := suite.Find(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// runRecord executes the selected cases and writes BENCH_<label>.json.
func runRecord(bf benchFlags) int {
	cases, err := selectCases(bf.bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canecbench:", err)
		return 2
	}
	cfg := perf.RunConfig{Time: bf.benchTime, Iters: bf.iters}
	var results []perf.Result
	for _, c := range cases {
		fmt.Fprintf(os.Stderr, "bench %-18s ", c.Name)
		res := perf.Run(c, cfg)
		fmt.Fprintf(os.Stderr, "%10d iters  %12.1f ns/op  %8.1f allocs/op",
			res.Iters, res.NsPerOp, res.AllocsPerOp)
		if res.FramesPerSec > 0 {
			fmt.Fprintf(os.Stderr, "  %12.0f frames/s", res.FramesPerSec)
		}
		fmt.Fprintln(os.Stderr)
		results = append(results, res)
	}
	f := perf.Record(bf.jsonLabel, results)
	path, err := perf.WriteFile(bf.benchDir, f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canecbench:", err)
		return 1
	}
	fmt.Println(path)
	return 0
}

// runCompare gates a new trajectory point against a baseline; exits
// non-zero when any metric regressed past its threshold.
func runCompare(bf benchFlags, newPath string) int {
	oldF, err := perf.ReadFile(bf.compare)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canecbench:", err)
		return 2
	}
	newF, err := perf.ReadFile(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canecbench:", err)
		return 2
	}
	th := perf.Thresholds{
		NsPerOpFrac:    bf.nsFrac,
		AllocsPerOpAbs: bf.allocsAbs,
		FramesFrac:     bf.framesFrac,
	}
	deltas := perf.Compare(oldF, newF, th)
	for _, d := range deltas {
		fmt.Println(d)
	}
	if bad := perf.Regressions(deltas); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "canecbench: %d regression(s) vs %s\n", len(bad), bf.compare)
		return 1
	}
	fmt.Fprintf(os.Stderr, "canecbench: no regressions vs %s (%d checks)\n",
		bf.compare, len(deltas))
	return 0
}

// runProfile runs the mixed three-class workload under the kernel
// profiler and prints the per-class stage breakdown (EXPERIMENTS E15).
func runProfile(n int) int {
	snap := suite.ProfiledMixed(n)
	fmt.Printf("mixed workload: %d events/class, %d kernel steps, %.0f events/s wall\n",
		n, snap.Steps, snap.EventsPerSec)
	fmt.Printf("heap high-water %d, idle virtual %.3fs, busy virtual %.3fs\n",
		snap.HeapHighWater, float64(snap.IdleVirtualNs)/1e9, float64(snap.BusyVirtualNs)/1e9)
	fmt.Printf("delivered %d frames, %.1f allocs/frame\n\n", snap.Delivered, snap.AllocsPerDelivered)

	stages := append([]perf.StageSnap(nil), snap.Stages...)
	sort.Slice(stages, func(i, j int) bool {
		if stages[i].Stage != stages[j].Stage {
			return stages[i].Stage < stages[j].Stage
		}
		return stages[i].Class < stages[j].Class
	})
	// Stage times are sampled (one kernel step in about 64) and
	// exclusive, so the rows and unattributed add up to the step wall.
	share := func(ns int64) float64 {
		if snap.StepWallNs == 0 {
			return 0
		}
		return float64(ns) / float64(snap.StepWallNs)
	}
	fmt.Printf("%-12s %-5s %12s %8s %14s %10s %6s\n", "stage", "class", "ops", "samples", "wall_ns", "ns/op", "share")
	for _, s := range stages {
		perOp := 0.0
		if s.Ops > 0 {
			perOp = float64(s.WallNs) / float64(s.Ops)
		}
		fmt.Printf("%-12s %-5s %12d %8d %14d %10.1f %6.3f\n", s.Stage, s.Class, s.Ops, s.Samples, s.WallNs, perOp, share(s.WallNs))
	}
	fmt.Printf("%-12s %-5s %12s %8d %14d %10s %6.3f\n", "unattributed", "all", "-", snap.TimedSteps, snap.UnattributedNs, "-", share(snap.UnattributedNs))
	fmt.Printf("%-12s %-5s %12d %8d %14d %10.1f %6.3f\n", "step wall", "", snap.Steps, snap.TimedSteps, snap.StepWallNs,
		float64(snap.StepWallNs)/float64(max(snap.Steps, 1)), share(snap.StepWallNs))
	return 0
}
