package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"canec/internal/stats"
)

// schemaVersion identifies the BENCH_*.json layout this package writes.
// Readers accept any file whose schema is >= 1 and tolerate unknown
// fields, so newer writers stay readable by older gates.
const schemaVersion = 1

// Sample is what one benchmark case reports back for a run of n
// iterations, beyond the wall time and allocations the runner measures
// itself.
type Sample struct {
	// FramesPerOp is how many frames one iteration moved end to end;
	// the runner turns it into a frames/s metric. Zero means the case
	// has no frame-throughput interpretation.
	FramesPerOp float64
	// Hist, when non-nil, holds per-event latencies in nanoseconds; the
	// runner summarises it into p50/p90/p99 quantiles (µs).
	Hist *stats.LogHistogram
	// Extra carries case-specific metrics verbatim into the result.
	Extra map[string]float64
}

// Case is one recordable benchmark: Fn runs n iterations of the workload
// and reports a Sample. Fn must do all setup inside the call — the
// runner measures the whole invocation, which matches how the cases are
// also exercised as ordinary benchmarks (setup cost amortises to noise
// at real iteration counts).
type Case struct {
	Name string
	Fn   func(n int) Sample
}

// RunConfig controls the mini-runner.
type RunConfig struct {
	// Time is the target wall time per case; the runner scales the
	// iteration count until a run takes at least this long. Defaults to
	// one second.
	Time time.Duration
	// Iters, when > 0, runs exactly that many iterations once and skips
	// calibration — the fast path for smoke tests.
	Iters int
}

// Result is one benchmark's recorded outcome.
type Result struct {
	Name         string             `json:"name"`
	Iters        int                `json:"iters"`
	NsPerOp      float64            `json:"ns_per_op"`
	AllocsPerOp  float64            `json:"allocs_per_op"`
	BytesPerOp   float64            `json:"bytes_per_op"`
	FramesPerSec float64            `json:"frames_per_sec,omitempty"`
	QuantilesUs  map[string]float64 `json:"quantiles_us,omitempty"`
	Extra        map[string]float64 `json:"extra,omitempty"`
}

// Env pins down where a trajectory point was recorded, so cross-machine
// comparisons can be recognised for what they are.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// File is one point on the performance trajectory: a labelled, schema-
// versioned set of benchmark results plus the environment they came from.
type File struct {
	Schema     int      `json:"schema"`
	Label      string   `json:"label"`
	RecordedAt string   `json:"recorded_at,omitempty"`
	Env        Env      `json:"env"`
	Results    []Result `json:"results"`
}

// currentEnv snapshots the recording environment.
func currentEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Run executes one case under the given config and returns its Result.
// Allocation figures come from runtime.MemStats deltas, so they include
// everything the workload allocated on this goroutine and any helpers —
// a deliberate whole-process view, unlike testing.B's per-goroutine one.
func Run(c Case, cfg RunConfig) Result {
	target := cfg.Time
	if target <= 0 {
		target = time.Second
	}
	n := cfg.Iters
	if n <= 0 {
		n = 16
	}
	for {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		sample := c.Fn(n)
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)

		if cfg.Iters <= 0 && elapsed < target && n < 1e8 {
			// Calibrate like testing.B: predict the n that reaches the
			// target, padded 1.2x, at most 10x at a time.
			grow := int(float64(n) * 1.2 * float64(target) / float64(elapsed+1))
			if grow > 10*n {
				grow = 10 * n
			}
			if grow <= n {
				grow = n + 1
			}
			n = grow
			continue
		}

		res := Result{
			Name:        c.Name,
			Iters:       n,
			NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(n),
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
			Extra:       sample.Extra,
		}
		if sample.FramesPerOp > 0 && elapsed > 0 {
			res.FramesPerSec = sample.FramesPerOp * float64(n) / elapsed.Seconds()
		}
		if sample.Hist != nil && sample.Hist.N() > 0 {
			res.QuantilesUs = map[string]float64{
				"p50": sample.Hist.Quantile(0.50) / 1e3,
				"p90": sample.Hist.Quantile(0.90) / 1e3,
				"p99": sample.Hist.Quantile(0.99) / 1e3,
			}
		}
		return res
	}
}

// Record assembles a trajectory file from results, stamping schema, label
// and environment. Results are sorted by name so files diff cleanly.
func Record(label string, results []Result) File {
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	return File{
		Schema:     schemaVersion,
		Label:      label,
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		Env:        currentEnv(),
		Results:    sorted,
	}
}

// fileName returns the canonical on-disk name for a label.
func fileName(label string) string { return "BENCH_" + label + ".json" }

// WriteFile writes f to dir/BENCH_<label>.json, creating dir if needed.
// It returns the path written.
func WriteFile(dir string, f File) (string, error) {
	if f.Schema == 0 {
		f.Schema = schemaVersion
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fileName(f.Label))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadFile loads a trajectory file. Unknown fields are tolerated (newer
// writers add fields; old gates must keep working); a schema below 1 is
// rejected as not a BENCH file.
func ReadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema < 1 {
		return f, fmt.Errorf("%s: schema %d is not a BENCH file (want >= 1)", path, f.Schema)
	}
	return f, nil
}

// Find returns the named result and whether it exists.
func (f File) Find(name string) (Result, bool) {
	for _, r := range f.Results {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}
