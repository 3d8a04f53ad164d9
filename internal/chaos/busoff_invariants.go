package chaos

import (
	"fmt"

	"canec/internal/obs"
	"canec/internal/sim"
)

// AttackWindow is one scripted bus-off attack interval, recorded by
// Install and handed to the checkers through CheckContext.Attacks.
type AttackWindow struct {
	Start, End       sim.Time
	Attacker, Victim int
	// Rate is the scripted per-attempt corruption probability; the
	// victim-reaches-bus-off assertion only fires for decisive rates
	// (≥ 0.5), where the TEC ramp is essentially deterministic.
	Rate float64
}

// attackGrace is the slack the attack checkers allow beyond a window: the
// detection and isolation machinery needs a few slot occurrences to see
// the pattern.
func (c CheckContext) attackGrace() sim.Duration {
	if c.Round > 0 {
		return 2 * c.Round
	}
	return 2 * sim.Millisecond
}

// hrtPublishers maps each HRT subject to the set of stations that
// published on it during the run.
func hrtPublishers(recs []obs.Record) map[uint64]map[int]bool {
	publishers := make(map[uint64]map[int]bool)
	for _, r := range recs {
		if r.Stage == obs.StagePublished && r.Class == obs.ClassHRT {
			m, ok := publishers[r.Subject]
			if !ok {
				m = make(map[int]bool)
				publishers[r.Subject] = m
			}
			m[int(r.Node)] = true
		}
	}
	return publishers
}

// attackExcused reports whether an anomaly on subject at t is attributable
// to a scripted bus-off attack: t falls inside an attack window (extended
// by the grace plus the bus-off recovery bound, covering the victim's
// post-attack drain) and the subject is published by that attack's victim.
// The victim's own traffic arriving late — or not at all — IS the attack;
// the invariants guard everyone else.
func (c CheckContext) attackExcused(publishers map[uint64]map[int]bool, subject uint64, at sim.Time) bool {
	tail := c.attackGrace() + c.BusOffWindow
	for _, a := range c.Attacks {
		if at >= a.Start && at <= a.End+sim.Time(tail) && publishers[subject][a.Victim] {
			return true
		}
	}
	return false
}

// checkBusOffRecovery asserts that every controller entering bus-off
// recovers within the declared bound: a bus_off record must be answered by
// a bus_off_recovered record for the same node within BusOffWindow (the
// 128×11-recessive-bit observation plus the supervisor's worst-case
// backoff). Bus-offs too close to the end of the trace are excused as
// still observing recessive bits.
func checkBusOffRecovery(ctx CheckContext) []Violation {
	if ctx.BusOffWindow <= 0 {
		return nil
	}
	var end sim.Time
	recovered := make(map[int][]sim.Time)
	for _, r := range ctx.Records {
		if r.At > end {
			end = r.At
		}
		if r.Stage == obs.StageBusOffRecovered {
			recovered[int(r.Node)] = append(recovered[int(r.Node)], r.At)
		}
	}
	var out []Violation
	for _, r := range ctx.Records {
		if r.Stage != obs.StageBusOff {
			continue
		}
		if r.At > end-sim.Time(ctx.BusOffWindow) {
			continue // still inside its recovery window at trace end
		}
		ok := false
		for _, at := range recovered[int(r.Node)] {
			if at > r.At && at <= r.At+sim.Time(ctx.BusOffWindow) {
				ok = true
				break
			}
		}
		if !ok {
			out = append(out, Violation{
				Check: "busoff-recovery", At: r.At,
				Detail: fmt.Sprintf("node %d entered bus-off at %v and did not recover within %v", r.Node, r.At, ctx.BusOffWindow),
			})
		}
	}
	return out
}

// checkVictimBusOff asserts the attack worked: under a decisive corruption
// rate (≥ 0.5) the scripted victim must actually reach bus-off inside the
// attack window — a campaign whose attack silently fizzles would otherwise
// "prove" HRT survival against nothing. An attack the guardian cut short
// (the attacker was isolated before the victim's counters ramped) is a
// defensive success, not a fizzle, and is excused.
func checkVictimBusOff(ctx CheckContext) []Violation {
	if ctx.BusOffWindow <= 0 {
		return nil
	}
	var out []Violation
	for _, a := range ctx.Attacks {
		if a.Rate < 0.5 {
			continue
		}
		hit, isolated := false, false
		for _, r := range ctx.Records {
			if r.Stage == obs.StageBusOff && int(r.Node) == a.Victim &&
				r.At >= a.Start && r.At <= a.End {
				hit = true
				break
			}
			if r.Stage == obs.StageGuardIsolated && int(r.Node) == a.Attacker &&
				r.At >= a.Start && r.At <= a.End {
				isolated = true
			}
		}
		if !hit && !isolated {
			out = append(out, Violation{
				Check: "victim-busoff", At: a.Start,
				Detail: fmt.Sprintf("station %d attacked victim %d at rate %v in [%v, %v) but the victim never reached bus-off", a.Attacker, a.Victim, a.Rate, a.Start, a.End),
			})
		}
	}
	return out
}

// checkHRTSurvival asserts the defense's core promise: during a bus-off
// attack, healthy nodes' HRT slots never miss. Every slot_missed record
// inside an attack window (plus grace) is attributed to its subject's
// publishers; misses on subjects published by the victim (its slots *are*
// under attack) or by a station inside a crash outage are excused.
func checkHRTSurvival(ctx CheckContext) []Violation {
	if len(ctx.Attacks) == 0 {
		return nil
	}
	publishers := hrtPublishers(ctx.Records)
	ws := outages(ctx.Records)
	grace := ctx.attackGrace()
	var out []Violation
	for _, r := range ctx.Records {
		if r.Stage != obs.StageMissed {
			continue
		}
		for _, a := range ctx.Attacks {
			if r.At < a.Start || r.At > a.End+sim.Time(grace) {
				continue
			}
			pubs := publishers[r.Subject]
			if pubs[a.Victim] {
				continue // the victim's own slots are expected to miss
			}
			healthy := false
			// order-free: whether any publisher is healthy; silentIn is pure.
			for p := range pubs {
				if !silentIn(ws, p, r.At) {
					healthy = true
					break
				}
			}
			if len(pubs) > 0 && !healthy {
				continue // every publisher of the subject was crashed
			}
			out = append(out, Violation{
				Check: "hrt-survival", At: r.At,
				Detail: fmt.Sprintf("healthy HRT subject %#x missed a slot at %v during the bus-off attack on station %d", r.Subject, r.At, a.Victim),
			})
			break
		}
	}
	return out
}

// checkAttackerIsolated asserts that an armed guardian ends every scripted
// attack by isolating the attacking station: a guard_isolated record for
// the attacker must appear inside the attack window plus grace.
func checkAttackerIsolated(ctx CheckContext) []Violation {
	if !ctx.GuardianArmed {
		return nil
	}
	grace := ctx.attackGrace()
	var out []Violation
	for _, a := range ctx.Attacks {
		hit := false
		for _, r := range ctx.Records {
			if r.Stage == obs.StageGuardIsolated && int(r.Node) == a.Attacker &&
				r.At >= a.Start && r.At <= a.End+sim.Time(grace) {
				hit = true
				break
			}
		}
		if !hit {
			out = append(out, Violation{
				Check: "attacker-isolated", At: a.Start,
				Detail: fmt.Sprintf("the guardian never isolated attacking station %d during its window [%v, %v)", a.Attacker, a.Start, a.End),
			})
		}
	}
	return out
}
