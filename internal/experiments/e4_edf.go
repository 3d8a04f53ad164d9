package experiments

import (
	"fmt"

	"canec/internal/baseline"
	"canec/internal/core"
	"canec/internal/sim"
	"canec/internal/stats"
	"canec/internal/workload"
)

// e4EDFvsDM sweeps the offered soft real-time load and compares the
// deadline-miss ratio of the paper's EDF-via-priority-slots scheme
// against deadline-monotonic fixed priorities (the discipline of the
// standard CAN protocols the paper criticises in §4) and against a
// clairvoyant centralized non-preemptive EDF oracle. The paper's
// motivation for dynamic scheduling — "a substantial share of aperiodic
// and sporadic traffic ... can not adequately be mapped to static
// priorities" (§3.4) — shows up as the growing gap between DM and EDF as
// load rises, while the oracle bounds what is achievable at all.
// worstStreamMiss returns the highest per-stream miss+drop ratio (streams
// with at least 20 jobs, to keep the statistic stable).
func worstStreamMiss(o baseline.Outcome, nStreams int) float64 {
	bad := make([]int, nStreams)
	tot := make([]int, nStreams)
	for _, j := range o.Jobs {
		tot[j.Job.Stream]++
		if j.Missed || j.Dropped {
			bad[j.Job.Stream]++
		}
	}
	worst := 0.0
	for i := range tot {
		if tot[i] >= 20 {
			if r := float64(bad[i]) / float64(tot[i]); r > worst {
				worst = r
			}
		}
	}
	return worst
}

func e4EDFvsDM(seed uint64) Result {
	tbl := stats.Table{
		Title: "deadline-miss ratio vs offered load (mixed periodic/sporadic set, deadline = period)",
		Headers: []string{"load", "streams", "jobs", "EDF miss%", "DM miss%", "oracle miss%",
			"EDF worstStream%", "DM worstStream%", "promos/job"},
	}
	ft := actualFrameTime
	for _, load := range []float64{0.3, 0.5, 0.7, 0.85, 0.9, 0.95, 1.0, 1.2} {
		rng := sim.NewRNG(seed + uint64(load*100))
		streams := workload.MixedSet(12, load, ft, rng)
		horizon := sim.Time(2 * sim.Second)
		jobs := workload.GenJobs(rng, streams, horizon)
		runFor := horizon + 200*sim.Millisecond
		edf := baseline.RunEDF(streams, jobs, core.DefaultBands(), seed, runFor)
		dm := baseline.RunDM(streams, jobs, 2, 250, seed, runFor)
		oracle := baseline.RunOracle(streams, jobs, seed, runFor)
		promosPerJob := float64(edf.Promotions) / float64(len(jobs))
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.2f", load),
			fmt.Sprint(len(streams)),
			fmt.Sprint(len(jobs)),
			stats.Pct(edf.MissRatio()),
			stats.Pct(dm.MissRatio()),
			stats.Pct(oracle.MissRatio()),
			stats.Pct(worstStreamMiss(edf, len(streams))),
			stats.Pct(worstStreamMiss(dm, len(streams))),
			fmt.Sprintf("%.1f", promosPerJob),
		})
	}
	return Result{
		ID:    "E4",
		Title: "EDF via priority slots vs fixed priority vs clairvoyant oracle (§3.3-3.4)",
		Table: tbl,
		Notes: []string{
			"totals alone mislead: past saturation DM shows low *total* misses because it starves its",
			"lowest-priority streams outright (DM worstStream ⇒ 100%) while serving the high-rate top",
			"classes perfectly; EDF — like the clairvoyant oracle it tracks — degrades *uniformly*, so",
			"no stream is cut off (EDF worstStream ≈ its mean). This is the paper's positioning: EDF",
			"gives every deadline class proportionate service, and expirations (§2.2.2) shed the stale",
			"tail under transient overload instead of sacrificing whole subjects",
		},
	}
}
