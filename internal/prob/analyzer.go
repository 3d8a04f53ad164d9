package prob

import (
	"errors"
	"fmt"

	"canec/internal/can"
	"canec/internal/sim"
)

// Msg describes one periodic message stream for probabilistic
// response-time analysis — the same shape as baseline.MsgSpec plus a
// relative transmission deadline.
type Msg struct {
	// Name labels the stream in reports (channel subject, typically).
	Name string
	// Prio is the stream's fixed priority (lower = more urgent).
	Prio can.Prio
	// Period is the minimum inter-release time.
	Period sim.Duration
	// Jitter is the release jitter bound.
	Jitter sim.Duration
	// Deadline is the relative transmission deadline (0 = none; miss
	// probability is then reported as 0).
	Deadline sim.Duration
	// Payload is the frame payload in bytes.
	Payload int
}

// ErrUnschedulable is returned when the zero-error busy-period
// recurrence diverges: the deterministic part of the load already
// saturates the bus, so no error model makes the channel admissible.
var ErrUnschedulable = errors.New("prob: response-time recurrence diverged")

// Analyzer computes per-channel response-time distributions by
// convolution: the zero-error Tindell busy window fixes which
// transmissions interfere, and every transmission in the window
// contributes an error-extension distribution (retransmission plus
// error-signalling overhead per detected error, geometric in the
// model's per-attempt error probability). The deterministic
// omission-degree-k analysis is the point-mass special case
// (Deterministic = true): every transmission suffers exactly
// OmissionDegree errors with probability 1, and the resulting
// distribution collapses to the calendar's WCTT structure.
type Analyzer struct {
	// BitRate of the bus; 0 selects can.DefaultBitRate.
	BitRate int
	// Model is the stochastic fault law (ignored when Deterministic).
	Model ErrorModel
	// MaxErrors truncates the per-transmission error count; the
	// truncated geometric tail is charged to the distribution's
	// overflow (conservative). 0 selects 16.
	MaxErrors int
	// Horizon caps the analyzed response range; mass beyond it counts
	// as missed. 0 selects max(8×deadline, 16×frame time).
	Horizon sim.Duration
	// FrameBits maps a payload size to on-wire bits. Nil selects the
	// worst-case stuffing bound can.WorstCaseBits; validation runs use
	// the exact stuffed length of the frames actually sent.
	FrameBits func(payload int) int
	// Deterministic selects the degenerate point-mass error model:
	// exactly OmissionDegree errors per transmission with probability 1
	// — the calendar's omission-degree-k fault assumption.
	Deterministic  bool
	OmissionDegree int
}

// Result is the analysis outcome for one channel.
type Result struct {
	Msg Msg
	// Dist is the response-time distribution (bus-bit ticks).
	Dist *Dist
	// MissProb is P[response > deadline] including truncated mass; 0
	// when the message declares no deadline.
	MissProb float64
	// LossProb is the per-receiver probability of silently missing a
	// delivered event (inconsistent omission), independent of timing.
	LossProb float64
	// ZeroError is the deterministic error-free response time R0 (the
	// distribution's minimum support).
	ZeroError sim.Duration
	// Transmissions is the number of frames in the analyzed busy
	// window (the target plus counted interference), each of which
	// contributes an error-extension convolution term.
	Transmissions int
}

func (a Analyzer) bitRate() int {
	if a.BitRate <= 0 {
		return can.DefaultBitRate
	}
	return a.BitRate
}

func (a Analyzer) frameBits(payload int) int {
	if a.FrameBits != nil {
		return a.FrameBits(payload)
	}
	return can.WorstCaseBits(payload)
}

func (a Analyzer) maxErrors() int {
	if a.MaxErrors <= 0 {
		return 16
	}
	return a.MaxErrors
}

func (a Analyzer) frameTime(payload int) sim.Duration {
	return can.BitTime(a.frameBits(payload), a.bitRate())
}

// extensionAtoms returns the per-transmission error-extension
// distribution for a frame of the given payload: i errors cost
// i × (retransmission + error signalling) extra ticks.
func (a Analyzer) extensionAtoms(payload int) []atom {
	step := a.frameBits(payload) + can.ErrorOverheadBits
	if a.Deterministic {
		k := a.OmissionDegree
		if k < 0 {
			k = 0
		}
		return []atom{{dt: k * step, pr: 1}}
	}
	p := a.Model.RetransmitProb()
	if p <= 0 {
		return []atom{{dt: 0, pr: 1}}
	}
	n := a.maxErrors()
	atoms := make([]atom, 0, n+1)
	q, cum := 1.0, 0.0
	for i := 0; i <= n; i++ {
		pr := q * (1 - p) // P[i errors then success]
		atoms = append(atoms, atom{dt: i * step, pr: pr})
		cum += pr
		q *= p
	}
	// The residual 1-cum (more than n errors) stays un-modelled; the
	// convolution charges it to the overflow mass.
	return atoms
}

// Response analyzes the stream set[target] within its message set. The
// busy window is fixed by the zero-error Tindell recurrence (identical
// to baseline.WCRT with worst-case frame bits), then every transmission
// in the window contributes its error-extension distribution by
// convolution. The result owns a fresh distribution.
func (a Analyzer) Response(set []Msg, target int) (Result, error) {
	res, err := a.response(set, target, new(Dist), make([]int64, len(set)))
	if err != nil {
		return Result{}, err
	}
	res.Dist.spare = nil // the result retains the distribution only
	return res, nil
}

// response is Response convolving in d's buffers, with counts (one
// entry per message of set) as the busy window's per-interferer
// transmission counts. The result's Dist is d, valid until d's next
// use.
func (a Analyzer) response(set []Msg, target int, d *Dist, counts []int64) (Result, error) {
	if target < 0 || target >= len(set) {
		return Result{}, fmt.Errorf("prob: target %d out of set of %d", target, len(set))
	}
	m := set[target]
	bitRate := a.bitRate()
	tau := can.BitTime(1, bitRate)
	cm := a.frameTime(m.Payload)

	// Utilization precheck of the busy-period argument (zero-error
	// demand of the target and its higher-priority interference).
	if m.Period > 0 {
		u := float64(cm) / float64(m.Period)
		for i, h := range set {
			if i != target && h.Prio < m.Prio && h.Period > 0 {
				u += float64(a.frameTime(h.Payload)) / float64(h.Period)
			}
		}
		if u >= 1 {
			return Result{}, ErrUnschedulable
		}
	}

	// Blocking: the longest frame without higher priority than the
	// target (non-preemptive bus).
	var block sim.Duration
	for i, o := range set {
		if i != target && o.Prio >= m.Prio {
			if ft := a.frameTime(o.Payload); ft > block {
				block = ft
			}
		}
	}

	// Zero-error fixed point on the queueing delay w, keeping the
	// per-interferer transmission counts of the final window.
	horizon := 1000 * m.Period
	if horizon <= 0 {
		horizon = sim.Duration(1) << 40
	}
	w := block
	for iter := 0; ; iter++ {
		if iter >= 1_000_000 {
			return Result{}, ErrUnschedulable
		}
		next := block
		for i, h := range set {
			counts[i] = 0
			if i == target || h.Prio >= m.Prio || h.Period <= 0 {
				continue
			}
			n := int64((w + h.Jitter + tau + h.Period - 1) / h.Period)
			if n < 1 {
				n = 1
			}
			counts[i] = n
			next += sim.Duration(n) * a.frameTime(h.Payload)
		}
		if next == w {
			break
		}
		w = next
		if w > horizon {
			return Result{}, ErrUnschedulable
		}
	}
	r0 := m.Jitter + w + cm

	// Distribution horizon in ticks.
	distHorizon := a.Horizon
	if distHorizon <= 0 {
		distHorizon = 8 * m.Deadline
		if min := 16 * cm; distHorizon < min {
			distHorizon = min
		}
	}
	if distHorizon < r0+tau {
		distHorizon = r0 + tau
	}
	ticks := int(distHorizon/tau) + 2

	// Base: point mass at the zero-error response (round partial ticks
	// up — conservative).
	r0Ticks := int((r0 + tau - 1) / tau)
	d.reset(tau, r0Ticks, ticks)

	// Convolve the error extension of every transmission in the busy
	// window: the target's own frame plus each counted interferer.
	transmissions := 1
	d.convolveAtoms(a.extensionAtoms(m.Payload))
	for i, n := range counts {
		if n <= 0 {
			continue
		}
		atoms := a.extensionAtoms(set[i].Payload)
		for j := int64(0); j < n; j++ {
			d.convolveAtoms(atoms)
			transmissions++
		}
	}

	res := Result{
		Msg:           m,
		Dist:          d,
		ZeroError:     r0,
		Transmissions: transmissions,
	}
	if !a.Deterministic {
		res.LossProb = a.Model.DeliveryLossProb()
	}
	if m.Deadline > 0 {
		res.MissProb = d.TailAbove(m.Deadline)
	}
	return res, nil
}
