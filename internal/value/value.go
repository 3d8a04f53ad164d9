// Package value implements time-value functions in the sense of Jensen's
// Alpha (the paper's ref [11]): the worth of completing an event's
// transmission as a function of *when* it completes relative to its
// deadline. The paper uses them to derive the expiration attribute of
// soft real-time events — "the expiration time is an application specific
// parameter, which may be defined according to some value function"
// (§2.2) — and to reason about best-effort service after a missed
// deadline.
package value

import (
	"math"

	"canec/internal/sim"
)

// Function maps lateness (completion time − deadline; negative = early)
// to the value of the completion, normalised so that completing at or
// before the deadline is worth 1.
type Function interface {
	// At returns the value of completing with the given lateness.
	At(lateness sim.Duration) float64
}

// Step is the hard-deadline value function: full value until the
// deadline, zero after. Events with a Step function gain nothing from
// best-effort late transmission; their expiration equals their deadline.
type Step struct{}

// At implements Function.
func (Step) At(lateness sim.Duration) float64 {
	if lateness <= 0 {
		return 1
	}
	return 0
}

// Linear decays linearly from 1 at the deadline to 0 at deadline+Grace:
// a late sensor reading is still somewhat useful while the plant state it
// describes remains current.
type Linear struct {
	// Grace is the interval over which the value decays to zero.
	Grace sim.Duration
}

// At implements Function.
func (f Linear) At(lateness sim.Duration) float64 {
	if lateness <= 0 {
		return 1
	}
	if f.Grace <= 0 || lateness >= f.Grace {
		return 0
	}
	return 1 - float64(lateness)/float64(f.Grace)
}

// Exponential halves the value every HalfLife after the deadline: value
// never reaches exactly zero, modelling diagnostics that keep residual
// forensic worth.
type Exponential struct {
	HalfLife sim.Duration
}

// At implements Function.
func (f Exponential) At(lateness sim.Duration) float64 {
	if lateness <= 0 {
		return 1
	}
	if f.HalfLife <= 0 {
		return 0
	}
	return math.Exp2(-float64(lateness) / float64(f.HalfLife))
}

// Plateau keeps a constant reduced value After the deadline for Grace,
// then drops to zero: "late is acceptable but clearly worse" semantics.
type Plateau struct {
	After float64 // value in (0,1] granted while late within Grace
	Grace sim.Duration
}

// At implements Function.
func (f Plateau) At(lateness sim.Duration) float64 {
	if lateness <= 0 {
		return 1
	}
	if lateness >= f.Grace {
		return 0
	}
	return f.After
}

// ExpirationFor derives the expiration attribute of an event from its
// value function: the earliest lateness at which the value falls below
// threshold. This is exactly how the paper suggests applications define
// the expiration parameter (§2.2.2): once the residual value is below
// the threshold, transmitting the event wastes bandwidth and it should
// be removed from the send queue. A zero return means the value never
// falls below the threshold within horizon (no expiration).
func ExpirationFor(f Function, deadline sim.Time, threshold float64, horizon sim.Duration) sim.Time {
	if f.At(0) < threshold || f.At(sim.Nanosecond) < threshold {
		// Hard-deadline shape: no residual value after the deadline.
		return deadline
	}
	// Binary search for the crossing on (0, horizon]. Value functions are
	// non-increasing in lateness by construction.
	lo, hi := sim.Duration(0), horizon
	if f.At(hi) >= threshold {
		return 0 // never expires within the horizon
	}
	for hi-lo > sim.Microsecond {
		mid := lo + (hi-lo)/2
		if f.At(mid) >= threshold {
			lo = mid
		} else {
			hi = mid
		}
	}
	return deadline + hi
}
