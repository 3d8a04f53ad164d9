package experiments

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/stats"
)

const (
	e1Subject binding.Subject = 0x11
	e1Rounds                  = 300
)

// e1SlotGeometry reproduces Fig. 3: under increasing lower-priority
// background load, the HRT transmission start wanders inside
// [latest-ready, LST], the network-level arrival jitters accordingly, yet
// the middleware delivers every event exactly at the delivery deadline so
// the application-visible jitter collapses to (near) zero.
func e1SlotGeometry(seed uint64) Result {
	tbl := stats.Table{
		Title: "HRT slot geometry: tx start stays in [ready, LST]; delivery de-jittered",
		Headers: []string{"bgLoad", "txStartMin µs", "txStartMax µs", "ΔT_wait µs",
			"netJitter µs", "appJitter µs", "late", "missed"},
	}
	for _, bg := range []float64{0, 0.3, 0.6, 0.9} {
		row := e1Run(seed, bg)
		tbl.Rows = append(tbl.Rows, row)
	}
	return Result{
		ID:    "E1",
		Title: "slot geometry & delivery de-jittering (Fig. 3)",
		Table: tbl,
		Notes: []string{
			"txStart offsets are relative to the slot's latest-ready instant: they must stay in [0, ΔT_wait]",
			"netJitter is the peak-to-peak spread of frame arrivals; appJitter the spread of notifications",
			"the paper's claim: jitter is handled at the middleware layer, not the network layer (§3.2)",
		},
	}
}

func e1Run(seed uint64, bgLoad float64) []string {
	cfg := calendar.DefaultConfig()
	sys, cal := e1System(cfg, 3, seed)
	slot := cal.Slots[0]

	// Track HRT transmission starts relative to each round's ready time.
	txStart := stats.NewSeries("txStart")
	sys.Bus.Trace = func(e can.TraceEvent) {
		if e.Kind == can.TraceTxStart && e.Frame.ID.Prio() == 0 {
			rel := (e.At - sys.Cfg.Epoch) % cal.Round
			txStart.ObserveDuration(rel - slot.Ready)
		}
	}

	arrive := stats.NewSeries("arrive")
	deliver := stats.NewSeries("deliver")
	late, missed := 0, 0
	pub := pair(sys, core.HRT, e1Subject, 0, hrtAttrs(), nil, 1, hrtAttrs(),
		func(_ core.Event, di core.DeliveryInfo) {
			arrive.ObserveDuration((di.ArrivedAt - sys.Cfg.Epoch) % cal.Round)
			deliver.ObserveDuration((di.DeliveredAt - sys.Cfg.Epoch) % cal.Round)
			if di.Late {
				late++
			}
		},
		func(e core.Exception) {
			if e.Kind == core.ExcSlotMissed {
				missed++
			}
		})
	onGrid(sys, pub, e1Subject, e1Rounds, -100*sim.Microsecond, func(int64) []byte { return []byte{1} })

	// Background: node 2 keeps the bus busy with SRT traffic at the given
	// offered load (frame time ≈ 135 µs for 8-byte payloads).
	frame := can.BitTime(can.WorstCaseBits(8), can.DefaultBitRate)
	background(sys, 0x99, frame, bgLoad, sys.Cfg.Epoch+e1Rounds*cal.Round)

	sys.Run(sys.Cfg.Epoch + e1Rounds*cal.Round - 1)

	wait := float64(cfg.WaitTime())
	return []string{
		fmt.Sprintf("%.1f", bgLoad),
		stats.Micros(txStart.Min()),
		stats.Micros(txStart.Max()),
		stats.Micros(wait),
		stats.Micros(arrive.Spread()),
		stats.Micros(deliver.Spread()),
		fmt.Sprint(late),
		fmt.Sprint(missed),
	}
}

// background has node 2 offer SRT frames of the given wire time on subj
// at load (0: none) from time 0 until end, each with a 5 ms deadline.
func background(sys *core.System, subj binding.Subject, frame sim.Duration, load float64, end sim.Time) {
	if load <= 0 {
		return
	}
	ch := must(scenario.Announce(sys.Node(2).MW, core.SRT, subj, core.ChannelAttrs{}, nil))
	gap := sim.Duration(float64(frame)/load) - frame
	(&scenario.SRTPub{Sys: sys, Node: 2, Subject: subj, Ch: ch, Gap: frame + gap,
		Deadline: 5 * sim.Millisecond, End: end, Payload: zeros8}).Start(0)
}
