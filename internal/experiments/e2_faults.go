package experiments

import (
	"fmt"

	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/sim"
	"canec/internal/stats"
)

// e2FaultTolerance checks the HRT latency bound against its fault
// assumption: a channel dimensioned for omission degree k masks exactly
// up to k consistent faults per transmission — every event still delivered
// precisely at the deadline — while j > k adversarial faults push the
// delivery past the deadline and are detected (late deliveries, missed
// slots) rather than silent.
func e2FaultTolerance(seed uint64) Result {
	tbl := stats.Table{
		Title:   "HRT guarantee vs fault assumption (adversarial j faults/frame, slot dimensioned for k)",
		Headers: []string{"k", "j", "delivered", "atDeadline", "maxLateness µs", "slotMissed", "slotSpan µs"},
	}
	for k := 0; k <= 3; k++ {
		for j := 0; j <= 4; j++ {
			row := e2Run(seed, k, j)
			tbl.Rows = append(tbl.Rows, row)
		}
	}
	return Result{
		ID:    "E2",
		Title: "HRT latency bound under omission faults (§3.2)",
		Table: tbl,
		Notes: []string{
			"guarantee: j ≤ k ⇒ every event delivered exactly at the deadline (maxLateness = 0);",
			"j = k+1 can still squeak through: the WCTT uses worst-case bit stuffing, and real frames",
			"are a few bit-times shorter, leaving slack for roughly one extra retry; j ≥ k+2 is late",
			"and detected (lateness > 0, subscriber SlotMissed exceptions); slotSpan grows with k",
		},
	}
}

func e2Run(seed uint64, k, j int) []string {
	const rounds = 100
	cfg := calendar.DefaultConfig()
	cfg.OmissionDegree = k
	sys, cal := e1System(cfg, 2, seed)
	sys.Bus.Injector = can.AdversarialK{K: j, Prio: 0}

	slotDeadline := cal.Slots[0].Deadline(cfg)
	delivered, atDeadline, missed := 0, 0, 0
	var maxLate sim.Duration
	pub := pair(sys, core.HRT, e1Subject, 0, hrtAttrs(), nil, 1, hrtAttrs(),
		func(ev core.Event, di core.DeliveryInfo) {
			delivered++
			// Perfect clocks in this rig: the expected delivery instant of
			// round r is exact, so lateness is measured analytically.
			r := sim.Time(ev.Payload[0])
			expect := sys.Cfg.Epoch + r*cal.Round + slotDeadline
			if di.DeliveredAt == expect {
				atDeadline++
			} else if d := di.DeliveredAt - expect; d > maxLate {
				maxLate = d
			}
		},
		func(e core.Exception) {
			if e.Kind == core.ExcSlotMissed {
				missed++
			}
		})
	// 7-byte zero payload: maximises stuff bits, approaching the
	// worst-case frame the slot was dimensioned for.
	onGrid(sys, pub, e1Subject, rounds, -100*sim.Microsecond, func(r int64) []byte {
		return []byte{byte(r), 0, 0, 0, 0, 0, 0}
	})
	sys.Run(sys.Cfg.Epoch + rounds*cal.Round - 1)

	return []string{
		fmt.Sprint(k), fmt.Sprint(j),
		fmt.Sprint(delivered), fmt.Sprint(atDeadline),
		stats.Micros(float64(maxLate)), fmt.Sprint(missed),
		stats.Micros(float64(cfg.SlotSpan(8))),
	}
}
