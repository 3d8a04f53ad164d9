package main

import (
	"strings"
	"testing"

	"canec/internal/obs/perf"
	"canec/internal/obs/perf/suite"
)

// fastCases are the suite's cases cheap enough for a fixed-iteration
// recording: everything but the experiment tables.
const fastCases = "SimKernel,FrameWireBits,BusSaturated,EndToEndHRT,EndToEndSRT,RelayThroughput"

// TestBenchGate is the performance-trajectory gate (make bench-smoke): the
// whole record → compare loop, in-process, without a calibrated run.
func TestBenchGate(t *testing.T) {
	seed, err := perf.ReadFile("../../BENCH_seed.json")
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}

	t.Run("baseline self-compares clean", func(t *testing.T) {
		if bad := perf.Regressions(perf.Compare(seed, seed, perf.Thresholds{})); len(bad) > 0 {
			t.Errorf("BENCH_seed.json regresses against itself: %v", bad)
		}
	})

	t.Run("injected regression trips the gate", func(t *testing.T) {
		doctored := seed
		doctored.Results = append([]perf.Result(nil), seed.Results...)
		doctored.Results[0].NsPerOp *= 10
		bad := perf.Regressions(perf.Compare(seed, doctored, perf.Thresholds{}))
		if len(bad) != 1 || bad[0].Name != seed.Results[0].Name || !strings.Contains(bad[0].String(), "REGRESSION") {
			t.Errorf("10x ns/op on %s: regressions %v", seed.Results[0].Name, bad)
		}
	})

	t.Run("recorder runs fixed iterations", func(t *testing.T) {
		c, ok := suite.Find("SimKernel")
		if !ok {
			t.Fatal("SimKernel missing from suite")
		}
		if res := perf.Run(c, perf.RunConfig{Iters: 200}); res.Iters != 200 || res.NsPerOp <= 0 {
			t.Errorf("recorder sanity: %+v", res)
		}
	})

	t.Run("live recording round-trips", func(t *testing.T) {
		cases, err := selectCases(fastCases)
		if err != nil {
			t.Fatal(err)
		}
		var results []perf.Result
		for _, c := range cases {
			results = append(results, perf.Run(c, perf.RunConfig{Iters: 300}))
		}
		path, err := perf.WriteFile(t.TempDir(), perf.Record("smoke", results))
		if err != nil {
			t.Fatal(err)
		}
		back, err := perf.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.Label != "smoke" || len(back.Results) != len(cases) {
			t.Fatalf("read back label %q with %d results, want smoke with %d", back.Label, len(back.Results), len(cases))
		}
		for _, r := range back.Results {
			if r.Iters != 300 || r.NsPerOp <= 0 {
				t.Errorf("recorded %+v", r)
			}
		}
		if bad := perf.Regressions(perf.Compare(back, back, perf.Thresholds{})); len(bad) > 0 {
			t.Errorf("recording regresses against itself: %v", bad)
		}
	})

	t.Run("profiler reports every stage", func(t *testing.T) {
		seen := map[string]bool{}
		for _, s := range suite.ProfiledMixed(500).Stages {
			seen[s.Stage] = true
		}
		for _, stage := range []string{"enqueue", "heap", "arbitration", "codec", "dispatch", "delivery"} {
			if !seen[stage] {
				t.Errorf("stage %s missing from the profile", stage)
			}
		}
	})
}
