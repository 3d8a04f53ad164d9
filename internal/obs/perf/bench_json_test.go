package perf

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"canec/internal/stats"
)

func TestRunFixedIters(t *testing.T) {
	var sawN int
	c := Case{Name: "spin", Fn: func(n int) Sample {
		sawN = n
		time.Sleep(time.Millisecond)
		return Sample{FramesPerOp: 2, Extra: map[string]float64{"x": 7}}
	}}
	res := Run(c, RunConfig{Iters: 25})
	if sawN != 25 || res.Iters != 25 {
		t.Fatalf("iters: ran %d recorded %d, want 25", sawN, res.Iters)
	}
	if res.NsPerOp <= 0 {
		t.Fatalf("ns/op: %v", res.NsPerOp)
	}
	if res.FramesPerSec <= 0 {
		t.Fatalf("frames/s: %v", res.FramesPerSec)
	}
	if res.Extra["x"] != 7 {
		t.Fatalf("extra: %v", res.Extra)
	}
}

func TestRunCalibrates(t *testing.T) {
	var lastN int
	c := Case{Name: "spin", Fn: func(n int) Sample {
		lastN = n
		time.Sleep(time.Duration(n) * 50 * time.Microsecond)
		return Sample{}
	}}
	res := Run(c, RunConfig{Time: 20 * time.Millisecond})
	if lastN <= 16 {
		t.Fatalf("calibration never grew n past the floor: %d", lastN)
	}
	if res.Iters != lastN {
		t.Fatalf("result iters %d != final run %d", res.Iters, lastN)
	}
}

func TestRunQuantiles(t *testing.T) {
	c := Case{Name: "hist", Fn: func(n int) Sample {
		h := stats.NewLogHistogram("lat", 1e3, 1e10, 96)
		for i := 0; i < 1000; i++ {
			h.Observe(1e6) // 1ms
		}
		return Sample{Hist: h}
	}}
	res := Run(c, RunConfig{Iters: 1})
	p50 := res.QuantilesUs["p50"]
	if p50 < 500 || p50 > 2000 {
		t.Fatalf("p50 of a 1ms spike: %v µs", p50)
	}
	if _, ok := res.QuantilesUs["p99"]; !ok {
		t.Fatal("p99 missing")
	}
}

func TestFileGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := Record("golden", []Result{
		{Name: "Z", Iters: 10, NsPerOp: 123.5, AllocsPerOp: 4, BytesPerOp: 512,
			FramesPerSec: 9e5, QuantilesUs: map[string]float64{"p50": 1.5},
			Extra: map[string]float64{"table_rows": 12}},
		{Name: "A", Iters: 5, NsPerOp: 42},
	})
	if f.Schema != schemaVersion || f.Env.GoVersion == "" || f.Env.GOMAXPROCS == 0 {
		t.Fatalf("record metadata: %+v", f)
	}
	// Record sorts by name so trajectory files diff cleanly.
	if f.Results[0].Name != "A" || f.Results[1].Name != "Z" {
		t.Fatalf("results not sorted: %v, %v", f.Results[0].Name, f.Results[1].Name)
	}

	path, err := WriteFile(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_golden.json" {
		t.Fatalf("file name: %s", path)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
	}
	if r, ok := got.Find("Z"); !ok || r.FramesPerSec != 9e5 {
		t.Fatalf("Find(Z): %v %+v", ok, r)
	}
}

// TestReadFileUnknownFields pins forward compatibility: a file written
// by a future schema with extra fields must still load.
func TestReadFileUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_future.json")
	data := `{
  "schema": 3,
  "label": "future",
  "novel_top_level": {"a": 1},
  "env": {"go_version": "go99.9", "novel_env_field": true},
  "results": [
    {"name": "X", "iters": 7, "ns_per_op": 10, "novel_metric": 1e9}
  ]
}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != 3 || f.Label != "future" || len(f.Results) != 1 || f.Results[0].NsPerOp != 10 {
		t.Fatalf("parsed: %+v", f)
	}
}

func TestReadFileRejectsNonBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not_bench.json")
	os.WriteFile(path, []byte(`{"label":"x"}`), 0o644)
	if _, err := ReadFile(path); err == nil {
		t.Fatal("schema-less file accepted")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	os.WriteFile(path, []byte(`{not json`), 0o644)
	if _, err := ReadFile(path); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func benchFile(results ...Result) File {
	return File{Schema: 1, Label: "t", Results: results}
}

func regressionCount(deltas []Delta) int { return len(Regressions(deltas)) }

func TestCompareClean(t *testing.T) {
	oldF := benchFile(Result{Name: "B1", NsPerOp: 100, AllocsPerOp: 10, FramesPerSec: 1e6})
	newF := benchFile(Result{Name: "B1", NsPerOp: 110, AllocsPerOp: 10, FramesPerSec: 0.95e6})
	if n := regressionCount(Compare(oldF, newF, Thresholds{})); n != 0 {
		t.Fatalf("clean compare flagged %d regressions", n)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	oldF := benchFile(Result{Name: "B1", NsPerOp: 100, AllocsPerOp: 10, FramesPerSec: 1e6})
	newF := benchFile(Result{Name: "B1", NsPerOp: 10, AllocsPerOp: 1, FramesPerSec: 5e6})
	if n := regressionCount(Compare(oldF, newF, Thresholds{})); n != 0 {
		t.Fatalf("improvement flagged %d regressions", n)
	}
}

func TestCompareNsRegression(t *testing.T) {
	oldF := benchFile(Result{Name: "B1", NsPerOp: 100})
	newF := benchFile(Result{Name: "B1", NsPerOp: 200})
	bad := Regressions(Compare(oldF, newF, Thresholds{}))
	if len(bad) != 1 || bad[0].Metric != "ns_per_op" {
		t.Fatalf("regressions: %+v", bad)
	}
	if bad[0].String() == "" {
		t.Fatal("empty delta rendering")
	}
}

func TestCompareAllocsRegression(t *testing.T) {
	oldF := benchFile(Result{Name: "B1", NsPerOp: 100, AllocsPerOp: 3})
	newF := benchFile(Result{Name: "B1", NsPerOp: 100, AllocsPerOp: 4})
	bad := Regressions(Compare(oldF, newF, Thresholds{}))
	if len(bad) != 1 || bad[0].Metric != "allocs_per_op" {
		t.Fatalf("regressions: %+v", bad)
	}
	// 3 → 3.4 stays inside the 0.5-alloc absolute bound: noise, not leak.
	newF.Results[0].AllocsPerOp = 3.4
	if n := regressionCount(Compare(oldF, newF, Thresholds{})); n != 0 {
		t.Fatalf("alloc noise flagged: %d", n)
	}
}

// TestCompareAllocsMacroScale: experiment-level benchmarks run millions
// of allocs per op and drift by parts per million between runs (map
// growth, timer scheduling), so the alloc gate is max(abs, frac×old) —
// ppm drift passes, a real 1% leak still fails, and micro-bench
// sensitivity is untouched (0.1% of tens of allocs ≪ 0.5).
func TestCompareAllocsMacroScale(t *testing.T) {
	oldF := benchFile(Result{Name: "E9", NsPerOp: 1e9, AllocsPerOp: 2_457_362})
	newF := benchFile(Result{Name: "E9", NsPerOp: 1e9, AllocsPerOp: 2_457_366})
	if n := regressionCount(Compare(oldF, newF, Thresholds{})); n != 0 {
		t.Fatalf("ppm-scale macro drift flagged: %d", n)
	}
	// +1% of 2.4M is a genuine leak — over the 0.1% relative limit.
	newF.Results[0].AllocsPerOp = 2_457_362 * 1.01
	bad := Regressions(Compare(oldF, newF, Thresholds{}))
	if len(bad) != 1 || bad[0].Metric != "allocs_per_op" {
		t.Fatalf("macro leak missed: %+v", bad)
	}
	// Micro-bench: one new steady-state alloc per frame still trips.
	oldF = benchFile(Result{Name: "Relay", NsPerOp: 100, AllocsPerOp: 17})
	newF = benchFile(Result{Name: "Relay", NsPerOp: 100, AllocsPerOp: 18})
	bad = Regressions(Compare(oldF, newF, Thresholds{}))
	if len(bad) != 1 || bad[0].Metric != "allocs_per_op" {
		t.Fatalf("micro +1 alloc missed: %+v", bad)
	}
}

func TestCompareFramesRegression(t *testing.T) {
	oldF := benchFile(Result{Name: "B1", NsPerOp: 100, FramesPerSec: 1e6})
	newF := benchFile(Result{Name: "B1", NsPerOp: 100, FramesPerSec: 0.5e6})
	bad := Regressions(Compare(oldF, newF, Thresholds{}))
	if len(bad) != 1 || bad[0].Metric != "frames_per_sec" {
		t.Fatalf("regressions: %+v", bad)
	}
}

// TestCompareMissingBenchmark: deleting a slow benchmark is not a fix.
func TestCompareMissingBenchmark(t *testing.T) {
	oldF := benchFile(Result{Name: "Gone", NsPerOp: 100})
	newF := benchFile(Result{Name: "Other", NsPerOp: 100})
	bad := Regressions(Compare(oldF, newF, Thresholds{}))
	if len(bad) != 1 || bad[0].Metric != "missing" {
		t.Fatalf("regressions: %+v", bad)
	}
	if bad[0].String() == "" {
		t.Fatal("empty delta rendering")
	}
}

// TestCompareZeroBaseline: a zero ns/op baseline has nothing meaningful
// to ratio against and must not divide by zero or flag.
func TestCompareZeroBaseline(t *testing.T) {
	oldF := benchFile(Result{Name: "B1", NsPerOp: 0, FramesPerSec: 0})
	newF := benchFile(Result{Name: "B1", NsPerOp: 1e9, FramesPerSec: 1})
	if n := regressionCount(Compare(oldF, newF, Thresholds{})); n != 0 {
		t.Fatalf("zero baseline flagged %d regressions", n)
	}
}

// TestCompareNewOnlyBenchmark: benchmarks added since the baseline pass
// silently — they will be gated once a new baseline is recorded.
func TestCompareNewOnlyBenchmark(t *testing.T) {
	oldF := benchFile(Result{Name: "B1", NsPerOp: 100})
	newF := benchFile(
		Result{Name: "B1", NsPerOp: 100},
		Result{Name: "B2", NsPerOp: 1e12},
	)
	if n := regressionCount(Compare(oldF, newF, Thresholds{})); n != 0 {
		t.Fatalf("new-only benchmark flagged: %d", n)
	}
}

func TestThresholdDefaults(t *testing.T) {
	th := Thresholds{}.withDefaults()
	if th != defaultThresholds() {
		t.Fatalf("defaults not applied: %+v", th)
	}
	custom := Thresholds{NsPerOpFrac: 0.1}.withDefaults()
	if custom.NsPerOpFrac != 0.1 || custom.AllocsPerOpAbs != 0.5 {
		t.Fatalf("partial thresholds: %+v", custom)
	}
}
