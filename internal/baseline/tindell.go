// Package baseline implements the comparison systems the paper positions
// itself against (§4): a TTCAN-style time-triggered network (reservations
// enforced purely by time windows, no bandwidth reclamation, single-shot
// transmission), deadline-monotonic fixed-priority scheduling (Tindell &
// Burns [22]), the classical worst-case response-time analysis for CAN,
// and a clairvoyant non-preemptive EDF oracle that upper-bounds what any
// deadline-driven scheme can achieve on the shared bus.
package baseline

import (
	"errors"

	"canec/internal/can"
	"canec/internal/sim"
)

// MsgSpec describes one periodic message stream for response-time
// analysis.
type MsgSpec struct {
	// Prio is the stream's fixed priority (lower = more urgent).
	Prio can.Prio
	// Period is the minimum inter-release time.
	Period sim.Duration
	// Jitter is the release jitter bound.
	Jitter sim.Duration
	// Payload is the frame payload in bytes; worst-case stuffing is
	// assumed for the transmission time.
	Payload int
}

// frameTime returns the worst-case transmission time of the stream's
// frames.
func (m MsgSpec) frameTime(bitRate int) sim.Duration {
	return can.BitTime(can.WorstCaseBits(m.Payload), bitRate)
}

// errUnschedulable is returned when the response-time recurrence diverges
// past the analysis horizon (utilization ≥ 1 for the relevant band).
var errUnschedulable = errors.New("baseline: response-time recurrence diverged")

// WCRT computes the worst-case response time of stream target within the
// message set (Tindell/Burns analysis for CAN):
//
//	R = J_m + w + C_m
//	w = B_m + Σ_{h ∈ hp(m)} ⌈(w + J_h + τ_bit) / T_h⌉ · C_h
//
// where B_m is the longest lower-or-equal-priority frame that can block a
// release (non-preemptive bus) and τ_bit accounts for the arbitration
// granularity. The recurrence is iterated to a fixed point.
func WCRT(set []MsgSpec, target MsgSpec, bitRate int) (sim.Duration, error) {
	if bitRate <= 0 {
		bitRate = can.DefaultBitRate
	}
	tau := can.BitTime(1, bitRate)
	cm := target.frameTime(bitRate)

	// Precondition of the busy-period argument: the target and its
	// higher-priority interference must not saturate the bus, otherwise
	// the backlog grows without bound across periods even though the
	// first-instance recurrence can still reach a fixed point.
	u := float64(cm) / float64(target.Period)
	for _, h := range set {
		if h.Prio < target.Prio && h.Period > 0 {
			u += float64(h.frameTime(bitRate)) / float64(h.Period)
		}
	}
	if u >= 1 {
		return 0, errUnschedulable
	}

	// Blocking: the longest frame of any stream that does not have higher
	// priority than the target (including other instances at equal
	// priority from other nodes).
	var block sim.Duration
	for _, m := range set {
		if m.Prio >= target.Prio && m != target {
			if ft := m.frameTime(bitRate); ft > block {
				block = ft
			}
		}
	}

	// Fixed-point iteration on the queueing delay w.
	horizon := 1000 * target.Period
	if horizon <= 0 {
		horizon = sim.Time(1) << 40
	}
	w := block
	for iter := 0; iter < 1_000_000; iter++ {
		var next sim.Duration = block
		for _, h := range set {
			if h.Prio < target.Prio {
				n := int64((w + h.Jitter + tau + h.Period - 1) / h.Period)
				if n < 1 {
					n = 1
				}
				next += sim.Duration(n) * h.frameTime(bitRate)
			}
		}
		if next == w {
			return target.Jitter + w + cm, nil
		}
		w = next
		if w > horizon {
			return 0, errUnschedulable
		}
	}
	return 0, errUnschedulable
}

// DeadlineMonotonic assigns fixed priorities within [lo, hi] by relative
// deadline rank: the stream with the shortest deadline gets lo (most
// urgent). Ties keep input order. It returns an error when the band has
// fewer levels than there are streams.
func DeadlineMonotonic(deadlines []sim.Duration, lo, hi can.Prio) ([]can.Prio, error) {
	n := len(deadlines)
	if n > int(hi)-int(lo)+1 {
		return nil, errors.New("baseline: more streams than priority levels")
	}
	// Rank by deadline (stable insertion sort on indices: n is small).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && deadlines[idx[j]] < deadlines[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	out := make([]can.Prio, n)
	for rank, i := range idx {
		out[i] = lo + can.Prio(rank)
	}
	return out, nil
}
