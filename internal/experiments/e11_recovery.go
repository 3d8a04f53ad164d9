package experiments

import (
	"fmt"

	"canec/internal/calendar"
	"canec/internal/chaos"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/stats"
)

// e11Recovery measures what a whole-node outage costs and what it gives
// back. A scripted crash takes one HRT publisher down; its restart drives
// the full recovery path (re-attach, re-join over the binding protocol,
// re-bind, clock re-sync, calendar re-entry). The experiment reports the
// recovery latency of that path and — the flip side the paper's
// arbitration-based design buys (§3.2, §5) — how many bytes of the dead
// node's reserved HRT bandwidth background NRT traffic reclaims during
// the outage. A TTCAN-style network with the same reservations leaves the
// dead node's exclusive windows idle, so it reclaims nothing.
func e11Recovery(seed uint64) Result {
	tbl := stats.Table{
		Title: "node crash/restart: recovery latency and outage bandwidth reclamation (k=2 copies)",
		Headers: []string{"outage ms", "rejoin ms", "service gap ms", "slots missed",
			"canec reclaimed B", "ttcan reclaimed B", "violations"},
	}
	base := e11Canec(seed, -1, -1)
	ttBase := e11TTCAN(seed, base.cal, -1, -1)
	for _, outMS := range []float64{50, 100, 200} {
		down := e11CrashAt
		restart := down + sim.Duration(outMS*float64(sim.Millisecond))
		crash := e11Canec(seed, down, restart)
		tt := e11TTCAN(seed, base.cal, down, restart)
		// Reclamation: extra best-effort bytes on the wire inside the
		// service gap, against the same window of the identical run without
		// a crash.
		reclaimed := bytesIn(crash.deliv, crash.downAt, crash.upAt) -
			bytesIn(base.deliv, crash.downAt, crash.upAt)
		ttReclaimed := bytesIn(tt.deliv, down, restart) -
			bytesIn(ttBase.deliv, down, restart)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.0f", outMS),
			fmt.Sprintf("%.1f", float64(crash.upAt-crash.restartAt)/float64(sim.Millisecond)),
			fmt.Sprintf("%.1f", float64(crash.upAt-crash.downAt)/float64(sim.Millisecond)),
			fmt.Sprintf("%d", crash.missed),
			fmt.Sprintf("%d", reclaimed),
			fmt.Sprintf("%d", ttReclaimed),
			fmt.Sprintf("%d", crash.violations),
		})
	}
	return Result{
		ID:    "E11",
		Title: "crash recovery latency and outage reclamation (§3.2, §5)",
		Table: tbl,
		Notes: []string{
			"rejoin = node_restart to node_up: re-attach, join, re-bind, clock re-sync",
			"service gap = node_down to node_up; slots missed = subscriber-side SlotMissed exceptions",
			"canec reclaims the dead publisher's slots through arbitration (extra bulk frame-data bytes); TTCAN leaves them idle",
			"violations = chaos trace invariant failures over the crash run (must be 0)",
		},
	}
}

const (
	e11Horizon = 1500 * sim.Millisecond
	e11CrashAt = 600 * sim.Millisecond
	// e11Chunk keeps best-effort deliveries fine-grained so a short outage
	// window still resolves reclaimed bytes.
	e11Chunk = 128
)

type e11Run struct {
	downAt, restartAt, upAt sim.Time
	missed                  int
	violations              int
	deliv                   []sim.Time         // the bulk sender's frames on the wire
	cal                     *calendar.Calendar // the TTCAN comparator's reservations
}

// e11Scenario is the paper's system on eight stations with the five
// outage streams at omission degree 2 and, when down >= 0, a scripted
// crash/restart of node 1.
func e11Scenario(seed uint64, down, restart sim.Duration) *scenario.Scenario {
	sc := &scenario.Scenario{Name: "E11", Nodes: 8, Seed: seed, DurationMs: int64(e11Horizon / sim.Millisecond),
		MaxDriftPPM: 100, OmissionDegree: 2, HRT: fiveStreams(0x720), Observe: obs.Default()}
	if down >= 0 {
		sc.Chaos = &chaos.Script{Events: []chaos.Event{
			{Kind: "crash", AtMS: float64(down) / float64(sim.Millisecond), Node: 1},
			{Kind: "restart", AtMS: float64(restart) / float64(sim.Millisecond), Node: 1},
		}}
	}
	return sc
}

// e11Canec runs e11Scenario with saturating background NRT bulk.
func e11Canec(seed uint64, down, restart sim.Duration) e11Run {
	in := must(e11Scenario(seed, down, restart).Build())
	sys, end := in.Sys, in.Sys.Cfg.Epoch+e11Horizon

	// Saturating background bulk, node 6 -> node 7, in small chains so the
	// outage window resolves reclaimed bytes.
	run := e11Run{downAt: -1, restartAt: -1, upAt: -1, cal: sys.Cfg.Calendar}
	bulk := pair(sys, core.NRT, 0x7ff, 6, nrtAttrs(254), nil, 7, nrtAttrs(0), nil, nil)
	nrtFeed(sys, bulk, 0x7ff, e11Chunk, 4, 0, 0, end)

	sys.Run(end)
	rep := in.Finish()
	recs := sys.Obs.Records()
	for _, r := range recs {
		switch r.Stage {
		case obs.StageNodeDown:
			run.downAt = r.At
		case obs.StageNodeRestart:
			run.restartAt = r.At
		case obs.StageNodeUp:
			run.upAt = r.At
		case obs.StageMissed:
			run.missed++
		}
	}
	run.deliv = txTimes(recs, 6)
	if rep.Chaos != nil {
		run.violations = len(rep.Chaos.Violations)
	}
	return run
}

// e11TTCAN runs the TTCAN-style baseline with cal's reservations: the
// crash stops node 1's exclusive frames, but the windows stay reserved —
// the arbitration window, where the bulk traffic lives, does not grow.
func e11TTCAN(seed uint64, cal *calendar.Calendar, down, restart sim.Duration) e11Run {
	var run e11Run
	ttcan(seed, cal, 8, 6, e11Horizon,
		func(k *sim.Kernel, s calendar.Slot) bool {
			crashed := down >= 0 && k.Now() >= down && k.Now() < restart
			return !(crashed && s.Publisher == 1)
		},
		func(at sim.Time) { run.deliv = append(run.deliv, at) })
	return run
}
