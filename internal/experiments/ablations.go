package experiments

import (
	"fmt"

	"canec/internal/baseline"
	"canec/internal/calendar"
	"canec/internal/core"
	"canec/internal/sim"
	"canec/internal/stats"
	"canec/internal/workload"
)

// a1PromotionAblation removes the dynamic priority increase of §3.4 —
// messages keep the priority computed at enqueue time — and measures what
// the promotion machinery actually buys. Without promotion, a message
// enqueued far from its deadline stays at a lenient priority even as the
// deadline closes in, so later-enqueued urgent traffic permanently
// overtakes it: deadline misses and inversions grow.
func a1PromotionAblation(seed uint64) Result {
	tbl := stats.Table{
		Title:   "dynamic promotion ON vs OFF (miss ratio across offered load)",
		Headers: []string{"load", "jobs", "promoted miss%", "static miss%", "promoted inv%", "static inv%"},
	}
	ft := actualFrameTime
	for _, load := range []float64{0.5, 0.7, 0.85, 0.92} {
		rng := sim.NewRNG(seed + uint64(load*100))
		streams := workload.MixedSet(12, load, ft, rng)
		// Widen the deadline spread beyond the EDF horizon so enqueue-time
		// priorities go stale: this is precisely the situation §3.4's
		// promotion exists for.
		for i := range streams {
			streams[i].RelDeadline = streams[i].Period + 30*sim.Millisecond
			streams[i].RelExpiration = 2 * streams[i].RelDeadline
		}
		horizon := sim.Time(2 * sim.Second)
		jobs := workload.GenJobs(rng, streams, horizon)
		runFor := horizon + 200*sim.Millisecond
		on := baseline.RunEDFOpts(streams, jobs,
			baseline.EDFOptions{Bands: core.DefaultBands()}, seed, runFor)
		off := baseline.RunEDFOpts(streams, jobs,
			baseline.EDFOptions{Bands: core.DefaultBands(), DisablePromotion: true}, seed, runFor)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.2f", load),
			fmt.Sprint(len(jobs)),
			stats.Pct(on.MissRatio()),
			stats.Pct(off.MissRatio()),
			stats.Pct(e5Inversions(on, ft)),
			stats.Pct(e5Inversions(off, ft)),
		})
	}
	return Result{
		ID:    "A1",
		Title: "ablation: dynamic priority promotion (§3.4)",
		Table: tbl,
		Notes: []string{
			"OFF freezes each message at its enqueue-time priority slot",
			"with deadlines spread beyond the horizon, stale priorities mis-order traffic:",
			"inversions rise without promotion, and under load the misses follow",
		},
	}
}

// a2DejitterAblation disables the delivery-at-deadline machinery — events
// are notified on frame arrival — quantifying what the paper's §3.2
// middleware-layer jitter handling buys at each background load.
func a2DejitterAblation(seed uint64) Result {
	tbl := stats.Table{
		Title:   "delivery de-jittering ON vs OFF (application-level period jitter, µs)",
		Headers: []string{"bgLoad", "jitter ON µs", "jitter OFF µs", "latency ON µs", "latency OFF µs"},
	}
	for _, bg := range []float64{0, 0.3, 0.6, 0.9} {
		onJ, onL := a2Run(seed, bg, false)
		offJ, offL := a2Run(seed, bg, true)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.1f", bg),
			stats.Micros(float64(onJ)),
			stats.Micros(float64(offJ)),
			stats.Micros(onL),
			stats.Micros(offL),
		})
	}
	return Result{
		ID:    "A2",
		Title: "ablation: delivery at the deadline (§3.2)",
		Table: tbl,
		Notes: []string{
			"OFF delivers on frame arrival: the application inherits the full arbitration jitter,",
			"which grows with background load; ON pays a constant latency (the reserved deadline)",
			"for (near-)zero jitter — the paper's trade of latency for determinism",
		},
	}
}

func a2Run(seed uint64, bgLoad float64, deliverOnArrival bool) (sim.Duration, float64) {
	cfg := calendar.DefaultConfig()
	sys, cal := e1System(cfg, 3, seed)
	for _, n := range sys.Nodes {
		n.MW.DeliverOnArrival = deliverOnArrival
	}
	var times []sim.Time
	lat := stats.NewSeries("lat")
	pub := pair(sys, core.HRT, e1Subject, 0, hrtAttrs(), nil, 1, hrtAttrs(),
		func(_ core.Event, di core.DeliveryInfo) {
			times = append(times, di.DeliveredAt)
			rel := (di.DeliveredAt - sys.Cfg.Epoch) % cal.Round
			lat.ObserveDuration(rel)
		}, nil)
	const rounds = 200
	onGrid(sys, pub, e1Subject, rounds, -100*sim.Microsecond, func(int64) []byte { return []byte{1} })
	background(sys, 0x98, actualFrameTime(8), bgLoad, sys.Cfg.Epoch+rounds*cal.Round)
	sys.Run(sys.Cfg.Epoch + rounds*cal.Round - 1)
	return stats.PeriodJitter(times, cal.Round), lat.Mean()
}
