// Package prob implements a convolution-based probabilistic worst-case
// response-time analysis for the CAN bus, following the structure of the
// improved convolution analyses of probabilistic CAN response time: each
// transmission's error behaviour is a discrete distribution over extra
// bus time (retransmissions plus error signalling), the distributions of
// every transmission in a busy window are convolved, and the result is a
// per-channel response-time distribution discretized in bus-bit time.
// The deterministic omission-degree-k analysis of internal/calendar and
// internal/baseline is recovered exactly as the point-mass special case
// (every transmission suffers exactly k errors with probability 1).
//
// On top of the analyzer sits an admission controller (admission.go):
// HRT stays deterministic, SRT/NRT channels are admitted up to a
// configurable per-class target deadline-miss probability and shed again
// with typed reasons when the observed error state degrades the model.
package prob

import (
	"fmt"
	"math"

	"canec/internal/sim"
)

// Dist is a discrete probability distribution over response times,
// discretized in ticks of one bus-bit time. p[i] holds P[X = i ticks];
// mass beyond the analysis horizon accumulates in over (and is treated
// as "missed" by every tail query — truncation is conservative).
type Dist struct {
	tick sim.Duration
	p    []float64
	over float64
	// spare is the buffer the previous convolution read from; the next
	// one writes into it, so a chain of convolutions allocates two
	// buffers, not one per step, and a Dist reused through reset
	// allocates none once its buffers are large enough.
	spare []float64
}

// atom is one point of a sparse component distribution: probability pr
// of adding dt ticks.
type atom struct {
	dt int
	pr float64
}

// reset makes d the point mass at the given tick over horizon ticks,
// reusing d's buffer when it is large enough. Ticks at or beyond the
// horizon land in the overflow mass.
func (d *Dist) reset(tick sim.Duration, at, horizon int) {
	d.tick, d.over = tick, 0
	if cap(d.p) >= horizon {
		d.p = d.p[:horizon]
		clear(d.p)
	} else {
		d.p = make([]float64, horizon)
	}
	if at < 0 {
		at = 0
	}
	if at >= horizon {
		d.over = 1
		return
	}
	d.p[at] = 1
}

// convolveAtoms convolves d in place with a sparse component
// distribution given as atoms. Mass pushed past the horizon joins the
// overflow. The atoms' probabilities should sum to ≤ 1; any deficit
// (truncated component mass) is added to the overflow as well, keeping
// every tail estimate an upper bound.
func (d *Dist) convolveAtoms(atoms []atom) {
	var mass float64
	for _, a := range atoms {
		mass += a.pr
	}
	next := d.spare
	if cap(next) >= len(d.p) {
		next = next[:len(d.p)]
		clear(next)
	} else {
		next = make([]float64, len(d.p))
	}
	var over float64
	for i, pi := range d.p {
		if pi == 0 {
			continue
		}
		for _, a := range atoms {
			j := i + a.dt
			if j >= len(next) {
				over += pi * a.pr
				continue
			}
			next[j] += pi * a.pr
		}
		// Truncated component mass: the convolution partner had
		// probability (1 - mass) of exceeding its own truncation bound.
		over += pi * (1 - mass)
	}
	d.p, d.spare = next, d.p
	d.over += over
}

// Tick returns the duration of one distribution tick.
func (d *Dist) Tick() sim.Duration { return d.tick }

// Mass returns the total in-range probability mass (1 − overflow).
func (d *Dist) Mass() float64 {
	var m float64
	for _, pi := range d.p {
		m += pi
	}
	return m
}

// Overflow returns the probability mass beyond the analysis horizon.
// It counts against every tail and miss-probability estimate.
func (d *Dist) Overflow() float64 { return d.over }

// TailAbove returns P[X > t], counting overflow mass as above any t.
// Durations between ticks round down, so partial ticks count toward the
// tail (conservative).
func (d *Dist) TailAbove(t sim.Duration) float64 {
	if d.tick <= 0 {
		return d.over
	}
	limit := int(t / d.tick) // X > t iff ticks(X) > floor(t/tick) when X has integer ticks
	var tail float64
	for i := len(d.p) - 1; i > limit; i-- {
		tail += d.p[i]
	}
	return tail + d.over
}

// Quantile returns the smallest duration t with P[X ≤ t] ≥ q. ok is
// false when the quantile falls in the overflow mass beyond the
// horizon; the returned duration is then the horizon itself (a lower
// bound on the true quantile).
func (d *Dist) Quantile(q float64) (t sim.Duration, ok bool) {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var cum float64
	for i, pi := range d.p {
		cum += pi
		if cum >= q && pi > 0 {
			return sim.Duration(i) * d.tick, true
		}
	}
	return sim.Duration(len(d.p)) * d.tick, false
}

// Mean returns the expectation over the in-range mass, attributing
// overflow mass to the horizon (a lower bound when mass overflowed).
func (d *Dist) Mean() sim.Duration {
	var s float64
	for i, pi := range d.p {
		s += float64(i) * pi
	}
	s += float64(len(d.p)) * d.over
	return sim.Duration(s * float64(d.tick))
}

// MaxSupport returns the largest duration carrying in-range mass above
// eps, or 0 for an (effectively) empty distribution.
func (d *Dist) MaxSupport(eps float64) sim.Duration {
	for i := len(d.p) - 1; i >= 0; i-- {
		if d.p[i] > eps {
			return sim.Duration(i) * d.tick
		}
	}
	return 0
}

// String renders a compact summary for logs and the canecplan output.
func (d *Dist) String() string {
	p50, _ := d.Quantile(0.50)
	p99, _ := d.Quantile(0.99)
	return fmt.Sprintf("p50=%v p99=%v overflow=%.2g", p50, p99, d.over)
}

// sanity checks a probability parameter.
func validProb(p float64) bool { return p >= 0 && p <= 1 && !math.IsNaN(p) }
