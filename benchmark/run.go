package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"canec/internal/stats"
)

// runOpts are the knobs of one benchmark run of one workload.
type runOpts struct {
	seed uint64
	// scale shrinks the frozen traffic window; 1 everywhere but in tests.
	scale float64
	// seconds is how long the untraced run keeps repeating; minReps is
	// the least number of repetitions whatever the clock says.
	seconds float64
	minReps int
	// setupSamples is how many times set-up is timed.
	setupSamples int
}

// repetition is one timed System.Run: its host cost, its checked
// outcome and its virtual-time results.
type repetition struct {
	wall           float64 // seconds
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	out            outcome
	virt           virtualResults
}

// result is what one run of one workload reports.
type result struct {
	workload string
	traced   bool
	metrics  map[string]float64
	// quartiles of the host end-to-end metrics across repetitions.
	quartiles   map[string][3]float64
	ops, failed int
	fails       [numFailKinds]int
	digest      uint64
	reps        int
	repWall     float64 // median seconds of one timed System.Run
	virt        virtualResults
	notes       []string
}

// virtualResults are the workload's class-specific results in virtual
// time; exact for a seed, identical in every repetition.
type virtualResults struct {
	hrtJitterUsMax     float64
	srtP50Us, srtP99Us float64
	srtSamples         int
	srtMissRatio       float64
	nrtGoodputKbps     float64
	hopP99Us           float64
	hopSamples         int
}

// measure times System.Run over the instance's timed region and closes
// the books.
func measure(in *instance) repetition {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	in.run()
	wall := time.Since(t)
	runtime.ReadMemStats(&m1)
	r := repetition{
		wall:    wall.Seconds(),
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC, gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		out: in.finish(),
	}
	r.virt = in.virtualResults(r.out)
	return r
}

// run is the timed region: System.Run to the horizon, bracketed as the
// kernel.run span when traced.
func (in *instance) run() {
	if in.rec != nil {
		id := in.rec.begin("kernel.run")
		in.systems[0].Run(in.horizon)
		in.rec.end(id)
		return
	}
	in.systems[0].Run(in.horizon)
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func sortInts(v []int64) []int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

// quartiles returns q1, median and q3 of v (nearest rank).
func quartiles(v []float64) [3]float64 {
	s := stats.NewSeries("")
	for _, x := range v {
		s.Observe(x)
	}
	return [3]float64{s.Quantile(0.25), s.Quantile(0.5), s.Quantile(0.75)}
}

func (in *instance) virtualResults(o outcome) virtualResults {
	c := &in.chk
	v := virtualResults{hrtJitterUsMax: float64(c.hrtJitterMax) / 1e3,
		srtSamples: len(c.srtLat), hopSamples: len(c.hopLat)}
	srt, hop := sortInts(c.srtLat), sortInts(c.hopLat)
	v.srtP50Us, v.srtP99Us = quantile(srt, 0.50)/1e3, quantile(srt, 0.99)/1e3
	v.hopP99Us = quantile(hop, 0.99) / 1e3
	if n := o.counters.PublishedSRT; n > 0 {
		v.srtMissRatio = float64(o.counters.DeadlineMissed+o.counters.Expired+o.counters.Shed) / float64(n)
	}
	v.nrtGoodputKbps = float64(c.nrtBytes) * 8 / o.simSeconds / 1e3
	return v
}

// repeat runs fresh systems over the same inputs until at least minReps
// repetitions are done and seconds have passed. first, when non-nil, is
// an already built instance to start with.
func repeat(p *plan, first *instance, minReps int, seconds float64) ([]repetition, error) {
	var reps []repetition
	in := first
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		if in == nil {
			var err error
			if in, err = build(p, nil); err != nil {
				return nil, err
			}
		}
		reps = append(reps, measure(in))
		in = nil
	}
	return reps, nil
}

// runUntraced measures the end-to-end metrics: set-up is timed
// setupSamples times (each sample is setupBuilds consecutive set-ups),
// then the last system built and fresh ones after it are run over the
// same inputs until the clock says stop. Host metrics are medians over
// the repetitions; the simulated outcome must be the same in all.
func runUntraced(w workloadDef, o runOpts, log io.Writer) (*result, error) {
	p := w.makePlan(o.seed, o.scale)
	fmt.Fprintf(log, "# %s: %s\n", w.Name, p.describe())
	fmt.Fprintf(log, "# load is open-loop in virtual time and runs as fast as the host allows: generator lateness is zero by construction\n")

	var setup []float64
	var in *instance
	for i := 0; i < o.setupSamples; i++ {
		runtime.GC() // every sample starts from the same heap state
		t := time.Now()
		for j := 0; j < p.setupBuilds; j++ {
			var err error
			if in, err = build(p, nil); err != nil {
				return nil, err
			}
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	reps, err := repeat(p, in, o.minReps, o.seconds)
	if err != nil {
		return nil, err
	}

	res := newResult(w.Name, reps)
	var rate, allocs, bytes []float64
	for _, r := range reps {
		frames := float64(r.out.frames)
		rate = append(rate, frames/r.wall)
		allocs = append(allocs, float64(r.mallocs)/frames)
		bytes = append(bytes, float64(r.bytes)/frames)
	}
	for name, v := range map[string][]float64{"setup_s": setup, "frames_per_s": rate,
		"allocs_per_frame": allocs, "bytes_per_frame": bytes} {
		q := quartiles(v)
		res.quartiles[name] = q
		res.metrics[name] = q[1]
	}
	res.metrics["delivered_ratio"] = reps[0].out.deliveredRatio
	return res, nil
}

// newResult folds the repetitions' verdicts: the worst repetition
// counts, and repetitions that disagree on the digest fail every op —
// same seed, same inputs, different simulated outcome means nothing the
// workload reports can be trusted.
func newResult(workload string, reps []repetition) *result {
	first := reps[0]
	res := &result{workload: workload, metrics: map[string]float64{}, quartiles: map[string][3]float64{},
		ops: first.out.ops, failed: first.out.failed, fails: first.out.fails,
		digest: first.out.digest, reps: len(reps), repWall: medianWall(reps), virt: first.virt}
	for _, r := range reps[1:] {
		if r.out.failed > res.failed {
			res.failed, res.fails = r.out.failed, r.out.fails
		}
		if r.out.digest != first.out.digest {
			res.fails[failDigest] = res.ops
			res.failed = res.ops
		}
	}
	return res
}

// medianWall returns the median wall time of the repetitions.
func medianWall(reps []repetition) float64 {
	var w []float64
	for _, r := range reps {
		w = append(w, r.wall)
	}
	return quartiles(w)[1]
}
