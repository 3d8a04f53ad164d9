// Package baseline implements the comparison systems the paper positions
// itself against (§4): a TTCAN-style time-triggered network (reservations
// enforced purely by time windows, no bandwidth reclamation, single-shot
// transmission), deadline-monotonic fixed-priority scheduling (Tindell &
// Burns [22]) and a clairvoyant non-preemptive EDF oracle that
// upper-bounds what any deadline-driven scheme can achieve on the shared
// bus. The classical worst-case response-time analysis for CAN is
// prob.Analyzer.BusyWindow.
package baseline

import (
	"errors"

	"canec/internal/can"
	"canec/internal/sim"
)

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
