// Bus guardian: babbling-idiot containment for the HRT band.
//
// The calendar reserves exclusive windows for priority-0 (HRT) traffic, but
// nothing in plain CAN stops a faulty node from transmitting at priority 0
// whenever it likes — the classic babbling-idiot failure that TTP solves
// with an independent bus guardian per node. Guardian implements the same
// idea against this package's calendar: it vets every priority-0 frame
// before arbitration and mutes transmissions that do not fall inside a slot
// owned by the sending node.
package calendar

import (
	"canec/internal/can"
	"canec/internal/sim"
)

// Guardian is a calendar-aware can.Guardian. It allows every frame above
// the guarded priority band unconditionally (SRT/NRT/config traffic is
// arbitration-scheduled, not calendar-scheduled) and checks guarded frames
// against the static calendar: the frame's TxNode must own a slot that is
// active in the current round and whose reserved window (widened by Slack
// on both sides, absorbing clock-sync imprecision) contains the
// transmission instant.
//
// Each violation is muted (can.GuardMuteFrame). After Limit violations by
// the same controller the guardian escalates to node isolation
// (can.GuardMuteNode), the TTP-style response to a persistently babbling
// station. Limit 0 never isolates.
type Guardian struct {
	Cal *Calendar
	// Epoch is the global time of round 0's start (core.Middleware.Epoch).
	Epoch sim.Time
	// Slack widens each slot window on both sides. Nodes schedule their
	// slots on drifting local clocks, so a legitimate transmission can miss
	// the global window by up to the sync precision π; zero selects the
	// calendar's ΔG_min, which Admit guarantees to cover π.
	Slack sim.Duration
	// LocalAt converts a kernel (global) transmission instant into the
	// synchronized timebase the calendar grid lives in. A hardware bus
	// guardian keeps its own synchronized clock; on a drifting-clock system
	// set this to the sync master's Clock.Read so Epoch and the observed
	// instant share a timebase. Nil means the two coincide (ideal clocks).
	LocalAt func(sim.Time) sim.Time
	// Limit is the per-node violation count that escalates frame muting to
	// node isolation. 0 disables escalation.
	Limit int
	// SlotTargetedLimit escalates faster for slot-timed violations: a
	// guarded frame whose instant falls inside a calendar window owned by a
	// *different* station is not a node babbling on its own drifting clock —
	// it is the timing signature of a bus-off attack, where the adversary
	// fires precisely into the victim's slots to corrupt its transmissions.
	// After this many slot-targeted violations the sender is isolated, even
	// if the generic Limit has not been reached. 0 disables the fast path.
	SlotTargetedLimit int

	violations   map[int]int
	slotTargeted map[int]int
}

// NewGuardian returns a guardian for the calendar with the paper-default
// policy: guard the HRT band (priority 0), ΔG_min slack, isolate a node
// after limit violations.
func NewGuardian(cal *Calendar, epoch sim.Time, limit int) *Guardian {
	return &Guardian{Cal: cal, Epoch: epoch, Limit: limit}
}

func (g *Guardian) slack() sim.Duration {
	if g.Slack > 0 {
		return g.Slack
	}
	return g.Cal.Cfg.GapMin
}

// Judge implements can.Guardian.
func (g *Guardian) Judge(f can.Frame, sender int, at sim.Time) can.GuardianVerdict {
	if f.ID.Prio() != 0 { // only the HRT band (priority 0) is guarded
		return can.GuardAllow
	}
	if g.permitted(f, at) {
		return can.GuardAllow
	}
	if g.violations == nil {
		g.violations = make(map[int]int)
		g.slotTargeted = make(map[int]int)
	}
	g.violations[sender]++
	if g.inForeignSlot(f.ID.TxNode(), at) {
		g.slotTargeted[sender]++
		if g.SlotTargetedLimit > 0 && g.slotTargeted[sender] >= g.SlotTargetedLimit {
			return can.GuardMuteNode
		}
	}
	if g.Limit > 0 && g.violations[sender] >= g.Limit {
		return can.GuardMuteNode
	}
	return can.GuardMuteFrame
}

// permitted reports whether a guarded frame is inside a calendar window its
// sender owns. The transmission instant is global time while slots fire on
// local clocks, so the window is widened by the slack and the rounds
// adjacent to the nominal one are checked too (a slot near a round boundary
// can legitimately start just across it).
func (g *Guardian) permitted(f can.Frame, at sim.Time) bool {
	if g.Cal == nil || g.Cal.Round <= 0 {
		return false
	}
	if g.LocalAt != nil {
		at = g.LocalAt(at)
	}
	node := f.ID.TxNode()
	slack := g.slack()
	rel := at - g.Epoch
	nominal := int64(rel / sim.Duration(g.Cal.Round))
	if rel < 0 {
		nominal--
	}
	for _, s := range g.Cal.Slots {
		if s.Publisher != node {
			continue
		}
		for r := nominal - 1; r <= nominal+1; r++ {
			if r < 0 || !s.ActiveIn(r) {
				continue
			}
			start := g.Epoch + sim.Time(r)*sim.Time(g.Cal.Round) + sim.Time(s.Ready)
			end := g.Epoch + sim.Time(r)*sim.Time(g.Cal.Round) + sim.Time(s.End(g.Cal.Cfg))
			if at >= start-sim.Time(slack) && at <= end+sim.Time(slack) {
				return true
			}
		}
	}
	return false
}

// inForeignSlot reports whether the instant falls inside a calendar window
// owned by a station other than the sender — the slot-timed corruption
// signature the guardian escalates on. Same window arithmetic as permitted,
// with the ownership test inverted.
func (g *Guardian) inForeignSlot(sender can.TxNode, at sim.Time) bool {
	if g.Cal == nil || g.Cal.Round <= 0 {
		return false
	}
	if g.LocalAt != nil {
		at = g.LocalAt(at)
	}
	slack := g.slack()
	rel := at - g.Epoch
	nominal := int64(rel / sim.Duration(g.Cal.Round))
	if rel < 0 {
		nominal--
	}
	for _, s := range g.Cal.Slots {
		if s.Publisher == sender {
			continue
		}
		for r := nominal - 1; r <= nominal+1; r++ {
			if r < 0 || !s.ActiveIn(r) {
				continue
			}
			start := g.Epoch + sim.Time(r)*sim.Time(g.Cal.Round) + sim.Time(s.Ready)
			end := g.Epoch + sim.Time(r)*sim.Time(g.Cal.Round) + sim.Time(s.End(g.Cal.Cfg))
			if at >= start-sim.Time(slack) && at <= end+sim.Time(slack) {
				return true
			}
		}
	}
	return false
}
