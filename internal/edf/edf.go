// Package edf implements the deadline-to-priority mapping for soft
// real-time event channels (paper §3.3–3.4): CAN's priority-based
// arbitration is turned into an (approximate) earliest-deadline-first
// scheduler by encoding the temporal distance to a message's transmission
// deadline — its laxity — in the 8-bit priority field of the identifier,
// quantized into priority slots of length Δt_p, and dynamically promoting
// queued messages as time passes.
package edf

import (
	"fmt"

	"canec/internal/can"
	"canec/internal/sim"
)

// Band describes the contiguous priority range available to soft
// real-time traffic. The paper's running example keeps priority 0 for HRT
// messages, 250 levels (1..250) for SRT and 5 levels (251..255) for NRT;
// it stresses that the split is configurable by the application.
type Band struct {
	// Min is the numerically smallest (most urgent) SRT priority.
	Min can.Prio
	// Max is the numerically largest (least urgent) SRT priority.
	Max can.Prio
	// SlotLen is Δt_p, the temporal width of one priority slot.
	SlotLen sim.Duration
}

// DefaultBand returns the paper's example: priorities 1..250 with a
// priority slot of roughly one worst-case CAN frame (160 µs at 1 Mbit/s),
// "a priority slot length of approximately one CAN-message".
func DefaultBand() Band {
	return Band{Min: 1, Max: 250, SlotLen: 160 * sim.Microsecond}
}

// Validate reports configuration errors.
func (b Band) Validate() error {
	if b.Min > b.Max {
		return fmt.Errorf("edf: empty priority band [%d,%d]", b.Min, b.Max)
	}
	if b.SlotLen <= 0 {
		return fmt.Errorf("edf: non-positive priority slot length %v", b.SlotLen)
	}
	return nil
}

// Levels returns the number of distinct priority levels in the band.
func (b Band) Levels() int { return int(b.Max) - int(b.Min) + 1 }

// Horizon returns the time horizon ΔH = (P_max − P_min) · Δt_p: the
// largest laxity the band can represent. Deadlines further away all map
// to P_max and may therefore be scheduled out of order until they come
// closer — the trade-off discussed in §3.4.
func (b Band) Horizon() sim.Duration {
	return sim.Duration(b.Levels()-1) * b.SlotLen
}

// PrioFor maps a message's transmission deadline to its current priority
// at local time now. Laxity (deadline − now) is quantized into slots of
// Δt_p; zero or negative laxity (deadline reached or passed) yields the
// band's most urgent priority; laxity at or beyond the horizon saturates
// at the least urgent priority.
func (b Band) PrioFor(now, deadline sim.Time) can.Prio {
	lax := deadline - now
	if lax <= 0 {
		return b.Min
	}
	slot := int64(lax / b.SlotLen)
	if slot >= int64(b.Levels()-1) {
		return b.Max
	}
	return b.Min + can.Prio(slot)
}

// NextChange returns the local time at which the priority of a message
// with the given deadline will next change (i.e. the promotion instant),
// or zero if the message already sits at the most urgent priority. This
// lets a scheduler arm exactly one timer per queued message rather than
// sweeping every Δt_p.
func (b Band) NextChange(now, deadline sim.Time) sim.Time {
	lax := deadline - now
	if lax <= 0 {
		return 0
	}
	slot := int64(lax / b.SlotLen)
	if slot == 0 {
		// Already in the most urgent slot: no further promotion.
		return 0
	}
	if slot >= int64(b.Levels()-1) {
		// Saturated at P_max: the first change happens when laxity drops
		// below the horizon.
		return deadline - b.Horizon() + 1
	}
	// Priority changes when the laxity crosses the current slot's lower
	// boundary: lax' = slot·Δt_p, i.e. at deadline − slot·Δt_p.
	return deadline - sim.Time(slot)*b.SlotLen + 1
}

// Promotions returns how many identifier rewrites a message queued from
// enqueue time until (at latest) its deadline will undergo — the dynamic
// scheduling overhead the paper weighs against static priorities (§3.4,
// evaluated in [16]).
func (b Band) Promotions(enqueue, deadline sim.Time) int {
	if deadline <= enqueue {
		return 0
	}
	first := int64((deadline - enqueue) / b.SlotLen)
	if first >= int64(b.Levels()-1) {
		first = int64(b.Levels() - 1)
	}
	return int(first)
}
