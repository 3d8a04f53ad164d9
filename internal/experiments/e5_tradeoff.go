package experiments

import (
	"fmt"
	"sort"

	"canec/internal/baseline"
	"canec/internal/core"
	"canec/internal/edf"
	"canec/internal/sim"
	"canec/internal/stats"
	"canec/internal/workload"
)

// e5PrioritySlotTradeoff sweeps the priority-slot length Δt_p and
// measures the two failure modes §3.4 discusses:
//
//   - Δt_p too large → many distinct deadlines share a priority slot and
//     their order is resolved arbitrarily by the other identifier fields
//     (scheduling inversions among "equal priorities");
//   - Δt_p too small → the time horizon ΔH = 249·Δt_p shrinks below the
//     deadline spread, so far deadlines saturate at P_max and are
//     mis-ordered until they come close.
//
// The paper argues 250 slots of ≈ one CAN frame each suffice for 32–64
// node systems; the sweep shows the miss/inversion minimum indeed sits
// near that operating point.
func e5PrioritySlotTradeoff(seed uint64) Result {
	tbl := stats.Table{
		Title:   "Δt_p sweep at fixed load 0.85 (deadlines spread 2..100 ms)",
		Headers: []string{"Δt_p µs", "horizon ms", "miss%", "inversions%", "beyondHorizon%", "promos/job"},
	}
	for _, slotLen := range []sim.Duration{
		20 * sim.Microsecond, 80 * sim.Microsecond, 160 * sim.Microsecond,
		640 * sim.Microsecond, 2560 * sim.Microsecond, 10240 * sim.Microsecond,
	} {
		row := e5Run(seed, slotLen)
		tbl.Rows = append(tbl.Rows, row)
	}
	return Result{
		ID:    "E5",
		Title: "priority-slot length Δt_p trade-off (§3.4)",
		Table: tbl,
		Notes: []string{
			"inversions% = completed transmissions that overtook a pending message with an earlier deadline",
			"large Δt_p coarsens EDF: many deadlines share a slot and inversions grow steadily;",
			"small Δt_p buys resolution but (a) pushes beyondHorizon% up — those releases sit at P_max",
			"with undefined order — and (b) multiplies the promotion overhead (promos/job);",
			"the paper's operating point (Δt_p ≈ one frame, 250 slots) balances the three columns",
		},
	}
}

func e5Run(seed uint64, slotLen sim.Duration) []string {
	ft := actualFrameTime
	rng := sim.NewRNG(seed)
	streams := workload.MixedSet(12, 0.85, ft, rng)
	horizon := sim.Time(2 * sim.Second)
	jobs := workload.GenJobs(rng, streams, horizon)

	bands := core.DefaultBands()
	bands.SRT.SlotLen = slotLen
	out := baseline.RunEDF(streams, jobs, bands, seed, horizon+200*sim.Millisecond)

	inv := e5Inversions(out, ft)
	promos := float64(out.Promotions) / float64(len(jobs))
	band := edf.Band{Min: bands.SRT.Min, Max: bands.SRT.Max, SlotLen: slotLen}
	// Fraction of jobs released with laxity beyond the representable
	// horizon: their priority saturates at P_max and their order is
	// undefined until they come closer — the correctness risk of a small
	// Δt_p (§3.4).
	beyond := 0
	for _, j := range jobs {
		if j.Deadline-j.Release > band.Horizon() {
			beyond++
		}
	}
	return []string{
		fmt.Sprintf("%.0f", float64(slotLen)/1000),
		fmt.Sprintf("%.1f", float64(band.Horizon())/float64(sim.Millisecond)),
		stats.Pct(out.MissRatio()),
		stats.Pct(inv),
		stats.Pct(float64(beyond) / float64(len(jobs))),
		fmt.Sprintf("%.1f", promos),
	}
}

// e5Inversions counts, over completed jobs ordered by completion, the
// fraction whose transmission overtook another job that was already
// released, still pending, and had an earlier deadline — i.e. decisions a
// clairvoyant EDF scheduler would not have taken.
func e5Inversions(out baseline.Outcome, ft func(int) sim.Duration) float64 {
	done := make([]baseline.JobDone, 0, len(out.Jobs))
	for _, j := range out.Jobs {
		if j.Completed > 0 {
			done = append(done, j)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Completed < done[j].Completed })
	if len(done) == 0 {
		return 0
	}
	inv := 0
	// For each completion, scan the following completions that were
	// already released when this transmission started; count one
	// inversion if any of them had an earlier deadline.
	for i, a := range done {
		txStart := a.Completed - ft(8) // approximation: worst-case frame
		for j := i + 1; j < len(done) && j-i <= 200; j++ {
			// done is completion-ordered; releases are not, so scan a
			// bounded window of later completions.
			b := done[j]
			if b.Job.Release > txStart {
				continue // not yet pending when a was chosen
			}
			if b.Job.Deadline < a.Job.Deadline {
				inv++
				break
			}
		}
	}
	return float64(inv) / float64(len(done))
}
