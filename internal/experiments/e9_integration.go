package experiments

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/clock"
	"canec/internal/core"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/stats"
)

// e9Integration runs the full system — all three channel classes, clock
// synchronization, drifting clocks — at three network sizes and reports
// the per-class service quality table (§2.2, §5): HRT latency is constant
// with ≈0 application jitter, SRT latency is load-dependent with a small
// miss tail, NRT bulk goodput absorbs the remainder.
func e9Integration(seed uint64) Result {
	tbl := stats.Table{
		Title: "per-class service quality, full mixed system (1 s of traffic)",
		Headers: []string{"nodes", "class", "events", "latency µs (mean)", "p99 µs",
			"appJitter µs", "miss/lost", "busUtil%"},
	}
	var snaps []PromSnapshot
	for _, n := range []int{8, 16, 32} {
		rows, prom := e9Run(seed, n)
		tbl.Rows = append(tbl.Rows, rows...)
		if prom != "" {
			snaps = append(snaps, PromSnapshot{Label: fmt.Sprintf("nodes%d", n), Text: prom})
		}
	}
	return Result{
		ID:    "E9",
		Prom:  snaps,
		Title: "full mixed-class integration (§2.2, §5)",
		Table: tbl,
		Notes: []string{
			"HRT latency = publish→notification: constant by construction (delivery at the deadline)",
			"HRT jitter stays at clock-precision level regardless of network size and load",
			"SRT latency grows with contention; NRT absorbs leftover bandwidth",
		},
	}
}

func e9Run(seed uint64, nodes int) ([][]string, string) {
	// One HRT channel per 4 nodes; SRT diagnostics from every node; one
	// bulk NRT transfer.
	cfg := calendar.DefaultConfig()
	var slots []calendar.Slot
	nHRT := nodes / 4
	for i := 0; i < nHRT; i++ {
		slots = append(slots, calendar.Slot{
			Subject: uint64(0x800 + i), Publisher: can.TxNode(i), Payload: 8, Periodic: true,
		})
	}
	cal := must(calendar.PackSequential(cfg, 10*sim.Millisecond, slots...))
	sys := must(core.NewSystem(core.SystemConfig{
		Nodes: nodes, Seed: seed, Calendar: cal,
		Sync:             clock.DefaultSyncConfig(),
		MaxDriftPPM:      100,
		MaxInitialOffset: 100 * sim.Microsecond,
		Observe:          metricsConfig(),
	}))
	const rounds = 100
	end := sys.Cfg.Epoch + rounds*cal.Round - 1

	hrtLat := stats.NewSeries("hrtLat")
	var hrtTimes []sim.Time
	hrtMiss := 0
	for i, s := range cal.Slots {
		wired((&scenario.RoundPub{Sys: sys, Slot: s, Attrs: hrtAttrs(), At: -200 * sim.Microsecond,
			Rounds: rounds, End: end, Payload: func(int64) []byte { return scenario.Stamp(sys.K, 7) }}).Start())
		wired(scenario.Subscribe(sys.Node((i+1)%nodes).MW, core.HRT, binding.Subject(s.Subject), hrtAttrs(),
			func(_ core.Event, di core.DeliveryInfo) {
				hrtLat.ObserveDuration(di.DeliveredAt - di.PublishedAt)
				if i == 0 {
					hrtTimes = append(hrtTimes, di.DeliveredAt)
				}
			},
			func(e core.Exception) {
				if e.Kind == core.ExcSlotMissed {
					hrtMiss++
				}
			}))
	}

	srtLat := stats.NewSeries("srtLat")
	srtMiss, srtDrop := 0, 0
	for i := 0; i < nodes; i++ {
		subj := binding.Subject(0x900 + i)
		ch := pair(sys, core.SRT, subj, i, core.ChannelAttrs{}, func(e core.Exception) {
			switch e.Kind {
			case core.ExcDeadlineMissed:
				srtMiss++
			case core.ExcValidityExpired:
				srtDrop++
			}
		}, (i+3)%nodes, core.ChannelAttrs{}, func(_ core.Event, di core.DeliveryInfo) {
			srtLat.ObserveDuration(di.DeliveredAt - di.PublishedAt)
		}, nil)
		(&scenario.SRTPub{Sys: sys, Node: i, Subject: subj, Ch: ch, Gap: sim.Duration(nodes) * 2 * sim.Millisecond, Poisson: true,
			Deadline: 10 * sim.Millisecond, Expiration: 30 * sim.Millisecond, End: end,
			Payload: func(sim.Time) []byte { return scenario.Stamp(sys.K, 8) }}).Start(sys.Cfg.Epoch)
	}

	nrtBytes := 0
	bulk := pair(sys, core.NRT, 0xA00, nodes-1, nrtAttrs(254), nil, 0, nrtAttrs(0),
		func(ev core.Event, _ core.DeliveryInfo) { nrtBytes += len(ev.Payload) }, nil)
	nrtFeed(sys, bulk, 0xA00, 1024, 2, 1, sys.Cfg.Epoch, end)

	sys.Run(end)

	util := fmt.Sprintf("%.1f", 100*sys.Utilization())
	jitter := stats.PeriodJitter(hrtTimes, cal.Round)
	secs := float64(rounds*cal.Round) / float64(sim.Second)
	return [][]string{
		{fmt.Sprint(nodes), "HRT", fmt.Sprint(hrtLat.N()),
			stats.Micros(hrtLat.Mean()), stats.Micros(hrtLat.Quantile(0.99)),
			stats.Micros(float64(jitter)), fmt.Sprint(hrtMiss), util},
		{fmt.Sprint(nodes), "SRT", fmt.Sprint(srtLat.N()),
			stats.Micros(srtLat.Mean()), stats.Micros(srtLat.Quantile(0.99)),
			"-", fmt.Sprintf("%d/%d", srtMiss, srtDrop), util},
		{fmt.Sprint(nodes), "NRT", fmt.Sprint(nrtBytes / 1024),
			fmt.Sprintf("(%.0f KiB/s)", float64(nrtBytes)/1024/secs), "-", "-", "0", util},
	}, promText(sys.Obs)
}
