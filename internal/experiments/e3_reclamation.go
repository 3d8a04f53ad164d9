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

// e3Reclamation measures the paper's headline efficiency claim (§3.2,
// §5): bandwidth reserved for hard real-time traffic but not used — slots
// of sporadic channels that do not fire, and redundant fault-tolerance
// copies that are suppressed after a consistently successful transmission
// — is automatically reclaimed by lower-priority traffic through CAN
// arbitration. A TTCAN-style network with the same reservations cannot
// reclaim exclusive windows, so its best-effort throughput collapses as
// the reservation share grows.
func e3Reclamation(seed uint64) Result {
	tbl := stats.Table{
		Title:   "best-effort bulk throughput under HRT reservations (8 sporadic HRT channels, k=1)",
		Headers: []string{"duty", "reserved%", "canec KiB/s", "canec+alwaysK KiB/s", "ttcan KiB/s", "advantage"},
	}
	var snaps []PromSnapshot
	for _, duty := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		canecTP, prom := e3RunCanec(seed, duty, true)
		alwaysK, _ := e3RunCanec(seed, duty, false)
		ttcanTP, reserved := e3RunTTCAN(seed, duty)
		if prom != "" {
			snaps = append(snaps, PromSnapshot{Label: fmt.Sprintf("duty%.2f", duty), Text: prom})
		}
		adv := "∞"
		if ttcanTP > 0 {
			adv = fmt.Sprintf("%.2fx", canecTP/ttcanTP)
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.2f", duty),
			fmt.Sprintf("%.1f", 100*reserved),
			fmt.Sprintf("%.1f", canecTP),
			fmt.Sprintf("%.1f", alwaysK),
			fmt.Sprintf("%.1f", ttcanTP),
			adv,
		})
	}
	return Result{
		ID:    "E3",
		Prom:  snaps,
		Title: "bandwidth reclamation vs TTCAN-style TDMA (§3.2, §5)",
		Table: tbl,
		Notes: []string{
			"duty = probability a sporadic HRT channel actually publishes in its round",
			"canec reclaims unused slots and suppressed redundant copies; always-K sends every copy",
			"TTCAN leaves unused exclusive windows idle: its throughput is duty-independent and lowest",
		},
	}
}

const (
	e3Horizon = 2 * sim.Second
	// e3Rounds are the rounds whose publish instant, 100 µs before the
	// round at a 1 ms epoch, falls before e3Horizon.
	e3Rounds = 200
)

// e3Slots builds 8 sporadic single-publisher HRT reservations in a 10 ms
// round.
func e3Slots() *calendar.Calendar {
	cfg := calendar.DefaultConfig()
	cfg.OmissionDegree = 1
	var slots []calendar.Slot
	for i := 0; i < 8; i++ {
		slots = append(slots, calendar.Slot{
			Subject: uint64(0x700 + i), Publisher: can.TxNode(i), Payload: 8, Periodic: false,
		})
	}
	return must(calendar.PackSequential(cfg, 10*sim.Millisecond, slots...))
}

// e3RunCanec measures bulk NRT throughput in the paper's system.
func e3RunCanec(seed uint64, duty float64, suppress bool) (float64, string) {
	sys := must(core.NewSystem(core.SystemConfig{
		Nodes: 10, Seed: seed, Calendar: e3Slots(), Epoch: sim.Millisecond,
		NoSuppressRedundancy: !suppress,
		Observe:              metricsConfig(),
	}))
	// Sporadic HRT publishers: publish with probability duty per round.
	for i := 0; i < 8; i++ {
		subj := binding.Subject(0x700 + i)
		ch := must(scenario.Announce(sys.Node(i).MW, core.HRT, subj, core.ChannelAttrs{Payload: 7}, nil))
		onGrid(sys, ch, subj, e3Rounds, -100*sim.Microsecond, func(r int64) []byte {
			if sys.K.RNG().Bool(duty) {
				return []byte{byte(r)}
			}
			return nil
		})
	}
	// Bulk NRT with infinite backlog from node 8 to node 9.
	bytesDone := 0
	bulk := pair(sys, core.NRT, 0x7ff, 8, nrtAttrs(254), nil, 9, nrtAttrs(0),
		func(ev core.Event, _ core.DeliveryInfo) { bytesDone += len(ev.Payload) }, nil)
	nrtFeed(sys, bulk, 0x7ff, 1024, 2, 0, 0, e3Horizon)
	sys.Run(e3Horizon)
	return float64(bytesDone) / 1024 / (float64(e3Horizon) / float64(sim.Second)), promText(sys.Obs)
}

// e3RunTTCAN measures bulk throughput under the TTCAN baseline with the
// same reservations (one exclusive window per HRT channel per cycle: the
// window must cover the same worst-case span, including the retry budget,
// since TTCAN has no in-slot retransmission the span buys extra windows —
// we grant it the same total reservation) and the same duty cycle.
func e3RunTTCAN(seed uint64, duty float64) (throughput float64, reservedShare float64) {
	cal := e3Slots()
	bytesDone := 0
	ttcan(seed, cal, 10, 8, e3Horizon,
		func(k *sim.Kernel, _ calendar.Slot) bool { return k.RNG().Bool(duty) },
		func(sim.Time) { bytesDone += 8 })
	return float64(bytesDone) / 1024 / (float64(e3Horizon) / float64(sim.Second)), cal.Utilization()
}
