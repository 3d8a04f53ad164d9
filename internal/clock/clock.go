// Package clock models per-node drifting clocks and the master-based clock
// synchronization the paper's reservation scheme depends on (§3.2, refs
// [9][3]). HRT slot boundaries, the ΔG_min inter-slot gap and the
// delivery-at-deadline de-jittering are all defined against this global
// time base, so the achievable precision π directly bounds how tight the
// calendar may pack slots and how small application-visible jitter can get.
package clock

import (
	"math"

	"canec/internal/sim"
)

// Clock is a node-local clock with a constant rate error (drift). The
// local reading advances as
//
//	local(t) = lastLocal + (t − lastAdj) · (1 + drift)
//
// where lastAdj/lastLocal are updated by the synchronization protocol.
type Clock struct {
	drift     float64 // fractional rate error, e.g. 50e-6 for +50 ppm
	lastAdj   sim.Time
	lastLocal float64

	// timers holds the armed local timers in arming order, so a state
	// correction re-evaluates them — and hands out their kernel tie-break
	// sequence numbers — in an order that never depends on map iteration.
	// A timer that fired or was stopped leaves a nil hole; holes are
	// squeezed out once they outnumber the live entries, never during a
	// notification pass (indices must hold while it walks the slice).
	timers    []*LocalTimer
	holes     int
	notifying int
	// waiters run once after the next correction, in registration order.
	waiters []*adjustWaiter
}

// New returns a clock with the given drift (fractional, e.g. 100e-6 =
// 100 ppm fast) and an initial offset from true time.
func New(driftPPM float64, initialOffset sim.Duration) *Clock {
	return &Clock{
		drift:     driftPPM * 1e-6,
		lastLocal: float64(initialOffset),
	}
}

// DriftPPM returns the clock's rate error in parts per million.
func (c *Clock) DriftPPM() float64 { return c.drift * 1e6 }

// Read returns the local clock value at true (kernel) time now.
func (c *Clock) Read(now sim.Time) sim.Time {
	return sim.Time(math.Round(c.readf(now)))
}

func (c *Clock) readf(now sim.Time) float64 {
	return c.lastLocal + float64(now-c.lastAdj)*(1+c.drift)
}

// AdjustBy applies a state correction of delta local nanoseconds at true
// time now, folding the accumulated drift into the new baseline.
func (c *Clock) AdjustBy(now sim.Time, delta sim.Duration) {
	c.lastLocal = c.readf(now) + float64(delta)
	c.lastAdj = now
	c.notify()
}

// SetTo forces the local reading to value at true time now.
func (c *Clock) SetTo(now sim.Time, value sim.Time) {
	c.lastLocal = float64(value)
	c.lastAdj = now
	c.notify()
}

// adjustWaiter is one pending AfterNextAdjustment registration.
type adjustWaiter struct{ fn func() }

// AfterNextAdjustment runs fn once, right after the next state correction
// applied to this clock. A rebooted node uses it to wait until the
// synchronization protocol has pulled its cold-booted clock back into the
// global time base before re-entering the calendar. The returned function
// cancels the wait.
func (c *Clock) AfterNextAdjustment(fn func()) (cancel func()) {
	w := &adjustWaiter{fn: fn}
	c.waiters = append(c.waiters, w)
	return func() { w.fn = nil }
}

// notify re-evaluates the local timers armed at notification time, then
// runs the one-shot waiters; timers armed and waiters registered by a
// callback already saw the corrected clock and wait for the next
// adjustment.
func (c *Clock) notify() {
	if n := len(c.timers); n > 0 {
		c.notifying++
		for i := 0; i < n; i++ {
			if lt := c.timers[i]; lt != nil {
				lt.k.Cancel(lt.wake)
				lt.check()
			}
		}
		c.notifying--
		c.squeeze()
	}
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		if w.fn != nil { // not cancelled, also not by an earlier waiter of this pass
			w.fn()
		}
	}
}

// squeeze drops trailing holes and, once holes outnumber live timers,
// compacts the slice in place (amortised O(1) per stopped timer).
func (c *Clock) squeeze() {
	if c.notifying > 0 {
		return
	}
	n := len(c.timers)
	for n > 0 && c.timers[n-1] == nil {
		n--
		c.holes--
	}
	c.timers = c.timers[:n]
	if c.holes <= n/2 {
		return
	}
	live := c.timers[:0]
	for _, lt := range c.timers {
		if lt != nil {
			lt.idx = len(live)
			live = append(live, lt)
		}
	}
	for i := len(live); i < n; i++ {
		c.timers[i] = nil
	}
	c.timers, c.holes = live, 0
}

// WhenLocal returns the true time at which the local clock will read
// local, assuming no further adjustments. If that instant is in the past
// relative to now, now is returned so callers can schedule immediately.
func (c *Clock) WhenLocal(now sim.Time, local sim.Time) sim.Time {
	t := float64(c.lastAdj) + (float64(local)-c.lastLocal)/(1+c.drift)
	tt := sim.Time(math.Ceil(t))
	if tt < now {
		return now
	}
	return tt
}

// OffsetAt returns local − true at the given true time: the clock's
// instantaneous error against the reference time base.
func (c *Clock) OffsetAt(now sim.Time) sim.Duration {
	return c.Read(now) - now
}

// MaxSkew returns the worst pairwise difference between local readings of
// the given clocks at true time now — the achieved precision π at that
// instant.
func MaxSkew(now sim.Time, clocks []*Clock) sim.Duration {
	if len(clocks) == 0 {
		return 0
	}
	lo, hi := clocks[0].Read(now), clocks[0].Read(now)
	for _, c := range clocks[1:] {
		v := c.Read(now)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// LocalTimer runs a callback when a node's local clock reaches a target
// reading. It is meant to be embedded where the state it drives already
// lives and re-armed for every use: after Init, arming, firing, stopping
// and re-arming allocate nothing.
//
// Synchronization can adjust the clock between arming and firing in either
// direction: a backward correction makes the kernel timer fire early (the
// wake-up re-checks and re-arms), and a forward correction would make it
// fire late, so the clock also re-evaluates every armed timer immediately
// on each adjustment. The residual firing error is therefore bounded by
// the quantization of the clock, not by the correction step.
type LocalTimer struct {
	k      *sim.Kernel
	clk    *Clock
	fn     func()
	onWake func() // lt.check, bound once so arming allocates no method value
	target sim.Time
	wake   sim.Timer
	idx    int // position in clk.timers while armed
	armed  bool
}

// Init binds the timer to a kernel, a clock and its callback. It must be
// called once, before the first Arm, and the timer must not be copied
// afterwards.
func (lt *LocalTimer) Init(k *sim.Kernel, clk *Clock, fn func()) {
	lt.k, lt.clk, lt.fn = k, clk, fn
	lt.onWake = lt.check
}

// Armed reports whether the timer is waiting for its target.
func (lt *LocalTimer) Armed() bool { return lt.armed }

// Arm sets the timer to fire when the clock reads local, replacing any
// earlier target. If the clock already reads local or later, the callback
// runs synchronously, before Arm returns.
func (lt *LocalTimer) Arm(local sim.Time) {
	lt.Stop()
	lt.target = local
	lt.armed = true
	lt.idx = len(lt.clk.timers)
	lt.clk.timers = append(lt.clk.timers, lt)
	lt.check()
}

// Stop disarms the timer; the callback will not run until the next Arm.
func (lt *LocalTimer) Stop() {
	if !lt.armed {
		return
	}
	lt.k.Cancel(lt.wake)
	lt.disarm()
}

func (lt *LocalTimer) disarm() {
	lt.armed = false
	lt.clk.timers[lt.idx] = nil
	lt.clk.holes++
	lt.clk.squeeze()
}

// check fires the timer if the clock reached the target and otherwise
// (re)schedules the kernel wake-up for when it will, under the clock's
// current correction state.
func (lt *LocalTimer) check() {
	now := lt.k.Now()
	if lt.clk.Read(now) >= lt.target {
		lt.disarm()
		lt.fn()
		return
	}
	lt.wake = lt.k.At(lt.clk.WhenLocal(now, lt.target), lt.onWake)
}
