package experiments

import (
	"fmt"

	"canec/internal/chaos"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/stats"
)

// e16BusOffAttack sweeps the corruption rate of a scripted bus-off
// adversary (a station firing bit errors into the victim's calendar
// slots) against the fault-confinement machine, undefended and defended.
// Undefended rows show the raw weapon: how fast the TEC ramp drives the
// victim bus-off, how long it stays down under re-attack, and how many
// bytes of its reserved HRT bandwidth background NRT traffic reclaims
// through arbitration while it is silent (§3.2, §5 — the reclamation
// E11 measures for crashes applies to bus-off outages too). Defended
// rows arm the slot-timed guardian escalation: the attacker is isolated
// within a few victim-slot occurrences, the victim's supervisor brings
// it back under capped-exponential backoff, and healthy nodes' HRT
// slots never miss either way.
func e16BusOffAttack(seed uint64) Result {
	tbl := stats.Table{
		Title: "bus-off adversary sweep: attack rate vs confinement, recovery and guardian isolation",
		Headers: []string{"rate", "guardian", "busoff ms", "busoffs", "isolate ms",
			"victim down ms", "reclaimed B", "healthy misses", "violations"},
	}
	base := e16Exec(seed, 0, false)
	for _, rate := range []float64{0.05, 0.25, 0.5, 1.0} {
		for _, guarded := range []bool{false, true} {
			run := e16Exec(seed, rate, guarded)
			reclaimed := 0
			for _, w := range run.downWins {
				reclaimed += bytesIn(run.deliv, w[0], w[1]) - bytesIn(base.deliv, w[0], w[1])
			}
			guardian := "off"
			if guarded {
				guardian = "on"
			}
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("%.2f", rate),
				guardian,
				e16MS(run.busoffAt),
				fmt.Sprintf("%d", run.busoffs),
				e16MS(run.isolatedAt),
				fmt.Sprintf("%.1f", float64(run.downTotal)/float64(sim.Millisecond)),
				fmt.Sprintf("%d", reclaimed),
				fmt.Sprintf("%d", run.healthyMisses),
				fmt.Sprintf("%d", run.violations),
			})
		}
	}
	return Result{
		ID:    "E16",
		Title: "bus-off adversary campaigns: attack-rate sweep (Bosch §8 fault confinement)",
		Table: tbl,
		Notes: []string{
			"attacker fires into victim slots over [300,700) ms; rates below ~0.11 lose the +8/-1 TEC race and never reach bus-off",
			"busoff ms = attack start to the victim's first bus-off entry; isolate ms = attack start to guardian isolation of the attacker",
			"victim down = total bus-off time (recovery = 128*11 recessive bits + supervised backoff against flapping re-attack)",
			"reclaimed B = extra NRT frame-data bytes on the wire inside the victim's outage windows vs the attack-free run;",
			"  unlike a crash outage (E11), a bus-off under sustained re-attack frees nothing - attacker pulses and error bursts eat the reservation (negative = net loss)",
			"healthy misses = HRT slot misses on subjects not published by the victim; the victim's error bursts bleed into healthy slots only undefended",
			"violations = chaos trace invariant failures (hrt-survival and late healthy deliveries, expected undefended at decisive rates; must be 0 defended)",
		},
	}
}

const (
	e16Horizon  = 1200 * sim.Millisecond
	e16AttackAt = 300 * sim.Millisecond
	e16AttackTo = 700 * sim.Millisecond
	e16Victim   = 1
	e16Attacker = 8
	e16Chunk    = 128
)

type e16Result struct {
	busoffAt, isolatedAt sim.Time // relative to attack start; -1 = never
	busoffs              int
	downWins             [][2]sim.Time
	downTotal            sim.Duration
	healthyMisses        int
	violations           int
	deliv                []sim.Time // the bulk sender's frames on the wire
}

func e16MS(rel sim.Time) string {
	if rel < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(rel)/float64(sim.Millisecond))
}

// e16Scenario is the confined segment of nine stations with the five
// outage streams at omission degree 1 under one attack campaign (rate 0
// = attack-free baseline); the lifecycle supervisor owns bus-off
// recovery.
func e16Scenario(seed uint64, rate float64, guarded bool) *scenario.Scenario {
	// The guardian's slot limit counts only when the guardian is on.
	script := chaos.Script{Guardian: guarded, GuardianSlotLimit: e16SlotLimit}
	if rate > 0 {
		script.Events = []chaos.Event{{
			Kind:    "busoff_attack",
			AtMS:    float64(e16AttackAt) / float64(sim.Millisecond),
			UntilMS: float64(e16AttackTo) / float64(sim.Millisecond),
			Node:    e16Attacker, Victim: e16Victim, Rate: rate,
		}}
	}
	return &scenario.Scenario{Name: "E16", Nodes: 9, Seed: seed, DurationMs: int64(e16Horizon / sim.Millisecond),
		MaxDriftPPM: 100, OmissionDegree: 1, ConfineFaults: true, HRT: fiveStreams(0x730),
		Chaos: &script, Observe: obs.Default()}
}

// e16Exec runs e16Scenario with saturating background NRT bulk and
// reduces the trace to the sweep's measurements.
func e16Exec(seed uint64, rate float64, guarded bool) e16Result {
	in := must(e16Scenario(seed, rate, guarded).Build())
	sys, end := in.Sys, in.Sys.Cfg.Epoch+e16Horizon

	// Saturating background bulk, node 6 -> node 7, resolving reclaimed
	// bytes at frame granularity inside the victim's outage windows. The
	// top-up is bounded per tick, not queue-depth-gated: the attack ramps
	// every receiver's REC, so node 6 dips error-passive and sheds its NRT
	// queue — an unbounded "fill to depth 4" loop would spin forever
	// against a queue the shed keeps empty.
	bulk := pair(sys, core.NRT, 0x7fe, 6, nrtAttrs(254), nil, 7, nrtAttrs(0), nil, nil)
	nrtFeed(sys, bulk, 0x7fe, e16Chunk, 4, 4, 0, end)

	sys.Run(end)
	rep := in.Finish()

	res := e16Result{busoffAt: -1, isolatedAt: -1}
	victimSubjects := map[uint64]bool{0x730: true, 0x734: true}
	var downAt sim.Time = -1
	grace := 2 * sim.Duration(sys.Cfg.Calendar.Round)
	for _, r := range sys.Obs.Records() {
		switch r.Stage {
		case obs.StageBusOff:
			if int(r.Node) != e16Victim {
				break
			}
			res.busoffs++
			if res.busoffAt < 0 {
				res.busoffAt = r.At - e16AttackAt
			}
			downAt = r.At
		case obs.StageBusOffRecovered:
			if int(r.Node) != e16Victim || downAt < 0 {
				break
			}
			res.downWins = append(res.downWins, [2]sim.Time{downAt, r.At})
			res.downTotal += sim.Duration(r.At - downAt)
			downAt = -1
		case obs.StageGuardIsolated:
			if int(r.Node) == e16Attacker && res.isolatedAt < 0 {
				res.isolatedAt = r.At - e16AttackAt
			}
		case obs.StageMissed:
			if victimSubjects[r.Subject] {
				break
			}
			if r.At >= e16AttackAt && r.At <= e16AttackTo+sim.Time(grace) {
				res.healthyMisses++
			}
		}
	}
	if downAt >= 0 { // still bus-off at trace end
		res.downWins = append(res.downWins, [2]sim.Time{downAt, end})
		res.downTotal += sim.Duration(end - downAt)
	}
	res.violations = len(rep.Chaos.Violations)
	res.deliv = txTimes(sys.Obs.Records(), 6)
	return res
}

// e16SlotLimit is the guardian's slot-targeted isolation threshold for
// the defended rows: high enough that the victim demonstrably reaches
// bus-off before the attacker is isolated (the attacker accrues ~2
// slot-targeted violations per round), low enough that isolation lands
// well inside the attack window.
const e16SlotLimit = 20
