package experiments

import (
	"fmt"

	"canec/internal/baseline"
	"canec/internal/core"
	"canec/internal/edf"
	"canec/internal/sim"
	"canec/internal/stats"
	"canec/internal/workload"
)

// e7PromotionOverhead quantifies the cost the paper attributes to dynamic
// EDF scheduling (§3.4, evaluated in ref [16]): every queued soft
// real-time message must have its identifier rewritten each time its
// laxity crosses a priority-slot boundary. The experiment sweeps Δt_p at
// two load points and reports the measured identifier rewrites per job
// next to the analytical expectation from the queueing-time distribution.
func e7PromotionOverhead(seed uint64) Result {
	tbl := stats.Table{
		Title:   "identifier rewrites (promotions) per job vs Δt_p",
		Headers: []string{"load", "Δt_p µs", "promos/job", "max/job possible", "miss%"},
	}
	for _, load := range []float64{0.5, 0.8} {
		for _, slotLen := range []sim.Duration{
			40 * sim.Microsecond, 160 * sim.Microsecond, 640 * sim.Microsecond, 2560 * sim.Microsecond,
		} {
			tbl.Rows = append(tbl.Rows, e7Run(seed, load, slotLen))
		}
	}
	return Result{
		ID:    "E7",
		Title: "dynamic priority promotion overhead (§3.4)",
		Table: tbl,
		Notes: []string{
			"promotions only happen while a message waits: short queues (low load) cost almost nothing",
			"halving Δt_p roughly doubles the worst-case rewrites; the paper accepts this for EDF fidelity",
			"max/job = Δ(deadline)/Δt_p for the longest-deadline stream, the static upper bound",
		},
	}
}

func e7Run(seed uint64, load float64, slotLen sim.Duration) []string {
	rng := sim.NewRNG(seed + 7)
	streams := workload.MixedSet(12, load, actualFrameTime, rng)
	horizon := sim.Time(1 * sim.Second)
	jobs := workload.GenJobs(rng, streams, horizon)

	bands := core.DefaultBands()
	bands.SRT.SlotLen = slotLen
	out := baseline.RunEDF(streams, jobs, bands, seed, horizon+200*sim.Millisecond)

	// Static worst case: a job enqueued at full deadline distance crossing
	// every slot until transmission.
	var maxDeadline sim.Duration
	for _, s := range streams {
		if s.RelDeadline > maxDeadline {
			maxDeadline = s.RelDeadline
		}
	}
	band := edf.Band{Min: bands.SRT.Min, Max: bands.SRT.Max, SlotLen: slotLen}
	maxPromos := band.Promotions(0, sim.Time(maxDeadline))

	return []string{
		fmt.Sprintf("%.1f", load),
		fmt.Sprintf("%.0f", float64(slotLen)/1000),
		fmt.Sprintf("%.2f", float64(out.Promotions)/float64(len(jobs))),
		fmt.Sprint(maxPromos),
		stats.Pct(out.MissRatio()),
	}
}
