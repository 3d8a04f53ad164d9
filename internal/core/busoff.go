package core

import (
	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/sim"
)

// BusOffPolicy parameterises supervised bus-off recovery. The controller's
// built-in auto-recovery rejoins exactly after the 128×11-recessive-bit
// observation — under a sustained bus-off attack that makes the victim
// flap: rejoin, eat 32 corrupted attempts, detach again, forever. The
// supervisor adds a capped-exponential re-join backoff on top of the
// spec-mandated observation time: a station that keeps getting knocked
// off the bus backs off harder each time, and the ladder resets once it
// has stayed healthy for StableAfter.
type BusOffPolicy struct {
	// Retry shapes the re-join backoff added after the recovery
	// observation: attempt n (counting consecutive bus-offs) waits
	// Base·2ⁿ capped at Cap, plus jitter. Attempts is ignored — a
	// detached controller never stops trying to rejoin.
	Retry binding.RetryPolicy
	// StableAfter is how long a recovered station must stay on the bus
	// for its backoff ladder to reset.
	StableAfter sim.Duration
}

// DefaultBusOffPolicy keeps the first re-join prompt (2 ms beyond the
// recovery rule) while a persistent attacker quickly drives the victim
// to the 64 ms cap — long enough to stop burning bus time on doomed
// rejoins, short enough to come back within one SLO window.
func DefaultBusOffPolicy() BusOffPolicy {
	return BusOffPolicy{
		Retry: binding.RetryPolicy{
			Base:       2 * sim.Millisecond,
			Cap:        64 * sim.Millisecond,
			JitterFrac: 0.1,
		},
		StableAfter: 250 * sim.Millisecond,
	}
}

// MaxBackoff is the largest re-join delay the policy can add: the cap
// with full jitter. Chaos checkers build their recovery bound from it.
func (p BusOffPolicy) MaxBackoff() sim.Duration {
	c := p.Retry.Cap
	if c <= 0 {
		c = p.Retry.Base
	}
	return c + sim.Duration(float64(c)*p.Retry.JitterFrac)
}

// EnableBusOffRecovery arms the supervisor: every controller's built-in
// auto-recovery is switched off and the lifecycle schedules rejoins
// itself, adding the policy's backoff to the 128×11-recessive-bit
// observation. The zero policy selects DefaultBusOffPolicy. Only
// meaningful on systems built with ConfineFaults.
func (lc *Lifecycle) EnableBusOffRecovery(pol BusOffPolicy) {
	def := DefaultBusOffPolicy()
	if pol.Retry.Base <= 0 {
		pol.Retry = def.Retry
	}
	if pol.StableAfter <= 0 {
		pol.StableAfter = def.StableAfter
	}
	lc.busOffPol = pol
	lc.busOffArmed = true
	lc.busOffStreak = make(map[int]int)
	lc.busOffUpAt = make(map[int]sim.Time)
	for _, n := range lc.sys.Nodes {
		n.Ctrl.SetAutoRecover(false)
	}
	prev := lc.sys.Bus.OnErrorState
	lc.sys.Bus.OnErrorState = func(ctrl int, old, new can.ErrorState, at sim.Time) {
		if prev != nil {
			prev(ctrl, old, new, at)
		}
		lc.errorState(ctrl, old, new, at)
	}
}

// BusOffRecoveryArmed reports whether the supervisor owns recovery.
func (lc *Lifecycle) BusOffRecoveryArmed() bool { return lc.busOffArmed }

// BusOffRecoveryBound is the declared worst-case outage of one bus-off
// event under the armed policy: the recovery observation plus the capped
// backoff with full jitter. The chaos bus-off checker asserts every
// recovery against it.
func (lc *Lifecycle) BusOffRecoveryBound() sim.Duration {
	return lc.sys.Bus.BitDuration(can.BusOffRecoveryBits) + lc.busOffPol.MaxBackoff()
}

// errorState reacts to fault-confinement transitions. Kernel context
// (called from the bus's OnErrorState hook).
func (lc *Lifecycle) errorState(i int, old, new can.ErrorState, at sim.Time) {
	switch {
	case new == can.BusOff:
		lc.BusOffCount++
		streak := lc.busOffStreak[i]
		if up, ok := lc.busOffUpAt[i]; ok && sim.Duration(at-up) > lc.busOffPol.StableAfter {
			streak = 0 // stayed healthy long enough: ladder resets
		}
		lc.busOffStreak[i] = streak + 1
		wait := lc.sys.Bus.BitDuration(can.BusOffRecoveryBits) +
			lc.busOffPol.Retry.Backoff(streak, lc.sys.K.RNG())
		lc.sys.K.After(wait, func() {
			if lc.Down(i) {
				// The host crashed while detached; Restart power-cycles
				// the controller, which clears bus-off on its own.
				return
			}
			lc.sys.Nodes[i].Ctrl.Recover()
		})
	case old == can.BusOff:
		lc.BusOffRecovered++
		lc.busOffUpAt[i] = at
	}
}
