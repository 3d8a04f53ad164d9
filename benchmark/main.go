// Command benchmark is the repository's benchmark (BENCHMARK.json): six
// workloads over the public surface of the simulator, end-to-end metrics
// from untraced repetitions, and a per-layer ladder measured from outside
// in a separate traced run. See README.md in this directory.
//
// The driver runs one workload per invocation:
//
//	benchmark --workload mixed --seed 7 --seconds 10 --trace 0
//
// and reads the last line of standard output. Without --workload every
// workload runs, untraced then traced; -aa runs the untraced set twice,
// every run in a process of its own, and compares the two.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all)")
	seed := fs.Uint64("seed", 1, "input seed; 2 is the hold-out seed to confirm claims on")
	seconds := fs.Float64("seconds", 10, "how long the untraced run keeps repeating")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	aa := fs.Bool("aa", false, "run the untraced set twice and compare against the bounds")
	fs.StringVar(&outDir, "out", outDir, "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := runOpts{seed: *seed, scale: 1, seconds: *seconds, minReps: 3, setupSamples: 7}

	defs := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{w}
	}

	if *aa {
		return runAA(defs, o, stdout, stderr)
	}
	modes := []bool{*trace == 1}
	if *workload == "" {
		modes = []bool{false, true}
	}
	code := 0
	var last *result
	for _, traced := range modes {
		for _, w := range defs {
			res, err := runOne(w, o, traced, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			res.print(stdout)
			if res.failed > 0 {
				code = 1
			}
			last = res
		}
	}
	if *workload != "" {
		// The driver's line: the last thing on standard output.
		fmt.Fprintln(stdout, last.jsonLine())
	}
	return code
}

func runOne(w workloadDef, o runOpts, traced bool, log io.Writer) (*result, error) {
	if traced {
		return runTraced(w, o, log)
	}
	return runUntraced(w, o, log)
}

// print writes every metric by name with its unit.
func (r *result) print(w io.Writer) {
	if r.traced {
		for _, l := range perLayer {
			fmt.Fprintf(w, "%-16s %-42s %16.6g %s\n", r.workload, l.Name, r.metrics[l.Name], l.Unit)
		}
	} else {
		for _, e := range endToEnd {
			fmt.Fprintf(w, "%-16s %-18s %16.6g %-13s %-7s", r.workload, e.Name, r.metrics[e.Name], e.Unit, e.Kind)
			if q, ok := r.quartiles[e.Name]; ok {
				fmt.Fprintf(w, " q1 %.6g q3 %.6g over %d", q[0], q[2], r.reps)
			}
			fmt.Fprintln(w)
		}
		v := r.virt
		fmt.Fprintf(w, "%-16s virtual: hrt_jitter_us_max %.3f  srt_latency_us p50 %.3f p99 %.3f (n=%d)  srt_miss_ratio %.6f  nrt_goodput_kbps %.3f  hop_latency_us_p99 %.3f (n=%d)\n",
			r.workload, v.hrtJitterUsMax, v.srtP50Us, v.srtP99Us, v.srtSamples, v.srtMissRatio, v.nrtGoodputKbps, v.hopP99Us, v.hopSamples)
	}
	fmt.Fprintf(w, "%-16s ops %d failed %d vt_digest %016x reps %d of %.3f s", r.workload, r.ops, r.failed, r.digest, r.reps, r.repWall)
	for k, n := range r.fails {
		if n > 0 {
			fmt.Fprintf(w, " %s=%d", failNames[k], n)
		}
	}
	fmt.Fprintln(w)
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-16s note: %s\n", r.workload, n)
	}
}

// jsonLine renders the result in the driver's format.
func (r *result) jsonLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.traced {
		for _, l := range perLayer {
			metrics[l.Name] = value{r.metrics[l.Name], l.Unit}
		}
	} else {
		for _, e := range endToEnd {
			metrics[e.Name] = value{r.metrics[e.Name], e.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.ops > 0, max(r.ops, 1), r.failed, metrics})
	if err != nil {
		panic(err) // NaN or Inf in a metric: a bug in the harness
	}
	return string(b)
}

// aaRun is what -aa keeps of one child run.
type aaRun struct {
	metrics map[string]float64
	failed  int
	digest  string
}

var digestRE = regexp.MustCompile(`vt_digest ([0-9a-f]{16})`)

// runChild runs one workload untraced in a fresh process, as the driver
// does: set-up time in particular depends on what the process did before.
func runChild(w workloadDef, o runOpts, stderr io.Writer) (aaRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return aaRun{}, err
	}
	cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", "0", "-out", outDir)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return aaRun{}, err // exit code 1 is failed ops: still a result
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line struct {
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return aaRun{}, fmt.Errorf("no result line: %w", err)
	}
	r := aaRun{metrics: map[string]float64{}, failed: line.Failed}
	for n, v := range line.Metrics {
		r.metrics[n] = v.Value
	}
	if m := digestRE.FindSubmatch(out); m != nil {
		r.digest = string(m[1])
	}
	return r, nil
}

// aaRuns is how many runs each side of the A/A comparison makes. One
// pair is not enough: on a small shared machine a process lands in a fast
// or a slow state for its whole life (set-up time differs by a third
// between them), which is why the driver, too, compares medians.
const aaRuns = 3

// runAA runs the untraced set as two sides of aaRuns runs each, sides
// alternating, and prints per workload and end-to-end metric the
// relative difference of the sides' medians beside the bound. Host
// metrics may differ up to their bound; with the seed fixed, virtual
// metrics and digests may not differ at all.
func runAA(defs []workloadDef, o runOpts, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range defs {
		var sides [2][]aaRun
		verdict := "ok"
		for i := 0; i < 2*aaRuns; i++ {
			r, err := runChild(w, o, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			if r.failed > 0 {
				verdict, code = fmt.Sprintf("%d FAILED", r.failed), 1
			}
			sides[i%2] = append(sides[i%2], r)
			if r.digest != sides[0][0].digest {
				verdict, code = "DIFFERS", 1
			}
		}
		for _, e := range endToEnd {
			var med [2]float64
			for i, side := range sides {
				var v []float64
				for _, r := range side {
					v = append(v, r.metrics[e.Name])
				}
				med[i] = quartiles(v)[1]
			}
			diff := math.Abs(med[1]-med[0]) / math.Abs(med[0])
			bound, verdict := e.Bound, "ok"
			if e.Kind == virtual {
				bound = 0
			}
			if diff > bound {
				verdict, code = "DIFFERS", 1
			}
			fmt.Fprintf(stdout, "%-16s %-18s %-7s a %14.6g b %14.6g diff %8.4f%% bound %5.1f%% %s\n",
				w.Name, e.Name, e.Kind, med[0], med[1], 100*diff, 100*bound, verdict)
		}
		fmt.Fprintf(stdout, "%-16s vt_digest %s in %d runs %s\n", w.Name, sides[0][0].digest, 2*aaRuns, verdict)
	}
	return code
}
