package experiments

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/clock"
	"canec/internal/core"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/stats"
)

// e8ClockSync probes the relationship between synchronization quality and
// the inter-slot gap ΔG_min (§3.2): the reservation scheme is safe only
// while the real achieved precision π stays below the gap. The sweep
// lengthens the sync period (degrading π) while the calendar keeps
// assuming the paper's 40 µs gap; once the declared precision is a lie,
// adjacent tightly-packed slots from different publishers start
// overlapping in real time and late deliveries appear — exactly the
// failure the admission test exists to exclude.
func e8ClockSync(seed uint64) Result {
	tbl := stats.Table{
		Title:   "sync period vs achieved precision and HRT health (two adjacent slots, ΔG_min = 40 µs)",
		Headers: []string{"syncPeriod ms", "bound π µs", "measured π µs", "π<ΔG", "late", "slotMissed"},
	}
	for _, period := range []sim.Duration{
		20 * sim.Millisecond, 50 * sim.Millisecond, 100 * sim.Millisecond,
		200 * sim.Millisecond, 500 * sim.Millisecond, 2000 * sim.Millisecond,
	} {
		tbl.Rows = append(tbl.Rows, e8Run(seed, period))
	}
	return Result{
		ID:    "E8",
		Title: "clock precision vs ΔG_min gap (§3.2)",
		Table: tbl,
		Notes: []string{
			"the calendar always declares the paper's 40 µs gap; rows where the real π exceeds it",
			"show degraded behaviour (late deliveries) — the admission test would reject such configs",
			"had the true precision been declared (Config.Precision), as the library requires",
		},
	}
}

// e8Calendar reserves E8's two 10 ms channels, published by nodes 0 and
// 1, under an optimistic precision declaration.
func e8Calendar() *calendar.Calendar {
	cfg := calendar.DefaultConfig()
	cfg.Precision = 25 * sim.Microsecond // optimistic declaration
	return must(calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: 0x31, Publisher: 0, Payload: 8, Periodic: true},
		calendar.Slot{Subject: 0x32, Publisher: 1, Payload: 8, Periodic: true}))
}

func e8Run(seed uint64, period sim.Duration) []string {
	const maxDrift = 100.0
	syncCfg := clock.DefaultSyncConfig()
	syncCfg.Period = period

	cal := e8Calendar()
	sys := must(core.NewSystem(core.SystemConfig{
		Nodes: 4, Seed: seed, Calendar: cal,
		Sync: syncCfg, MaxDriftPPM: maxDrift,
		MaxInitialOffset: 200 * sim.Microsecond,
		Epoch:            3 * period,
	}))
	const rounds = 150
	end := sys.Cfg.Epoch + rounds*cal.Round - 1

	// Publishers on nodes 0 and 1, subscribers on nodes 2 and 3.
	late, missed := 0, 0
	for i, s := range cal.Slots {
		wired((&scenario.RoundPub{Sys: sys, Slot: s, Attrs: hrtAttrs(), At: -300 * sim.Microsecond,
			Rounds: rounds, End: end, Payload: func(r int64) []byte { return []byte{byte(r)} }}).Start())
		wired(scenario.Subscribe(sys.Node(2+i).MW, core.HRT, binding.Subject(s.Subject), hrtAttrs(),
			func(_ core.Event, di core.DeliveryInfo) {
				if di.Late {
					late++
				}
			},
			func(e core.Exception) {
				if e.Kind == core.ExcSlotMissed {
					missed++
				}
			}))
	}

	// Live precision sampling.
	var worst sim.Duration
	var sample func()
	sample = func() {
		if sk := clock.MaxSkew(sys.K.Now(), sys.Clocks); sk > worst {
			worst = sk
		}
		if sys.K.Now() < end {
			sys.K.After(5*sim.Millisecond, sample)
		}
	}
	sys.K.At(sys.Cfg.Epoch, sample)

	sys.Run(end)

	bound := clock.PrecisionBound(syncCfg, maxDrift)
	return []string{
		fmt.Sprintf("%.0f", float64(period)/float64(sim.Millisecond)),
		stats.Micros(float64(bound)),
		stats.Micros(float64(worst)),
		fmt.Sprint(worst < cal.Cfg.GapMin),
		fmt.Sprint(late),
		fmt.Sprint(missed),
	}
}
