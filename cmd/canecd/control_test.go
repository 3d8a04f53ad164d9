package main

import (
	"testing"
	"time"

	"canec/internal/sim"
)

// TestControlEndScalesWithPace: the demo loop's end is a virtual time while
// -dur is a wall limit, so the end must stretch with -pace. At -pace 4 the
// unscaled end stopped the loop halfway into the run and /control froze.
func TestControlEndScalesWithPace(t *testing.T) {
	const epoch = 5 * sim.Millisecond
	const dur = 30 * time.Second
	for _, pace := range []float64{0.25, 1, 4, 50} {
		end := controlEnd(epoch, sim.NewPaced(sim.NewKernel(1), pace), dur)
		// Where the pacer has brought virtual time when the wall limit expires.
		reached := sim.Time(epoch) + sim.Time(pace*float64(dur))
		if end < reached {
			t.Errorf("-pace %v: loop ends at %v, the run reaches %v", pace, end, reached)
		}
	}
}
