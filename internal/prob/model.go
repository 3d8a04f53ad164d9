package prob

import (
	"fmt"

	"canec/internal/can"
)

// ErrorModel is the single description of a link's stochastic fault
// behaviour, shared by the chaos injectors and the analyzer so that
// what the campaign injects and what admission control assumes are
// provably the same distribution.
//
// Per transmission attempt:
//   - with probability ErrorRate the attempt suffers a consistent,
//     detected error (CAN error frame, automatic retransmission) —
//     can.RandomErrors{Rate} bus-wide, or can.TargetedBitErrors{Rate}
//     for a single victim's link;
//   - otherwise, with probability OmissionRate the attempt is marked
//     for inconsistent omission and each receiver independently misses
//     it with probability VictimProb — can.RandomOmissions.
//
// Composing both in a can.Chain evaluates the error injector first, so
// the per-attempt probabilities above are exactly the chain's sampling
// law (the omission draw only happens on non-errored attempts, and its
// conditional probability is OmissionRate unchanged).
type ErrorModel struct {
	// ErrorRate is the per-attempt probability of a detected error
	// followed by retransmission.
	ErrorRate float64
	// OmissionRate is the per-attempt probability (conditional on no
	// detected error) that the transmission is marked for inconsistent
	// omission.
	OmissionRate float64
	// VictimProb is the per-receiver probability of silently missing an
	// omission-marked transmission.
	VictimProb float64
	// Receivers is the total controller count on the bus, required by
	// can.RandomOmissions when OmissionRate > 0.
	Receivers int
}

// Validate checks the model parameters.
func (m ErrorModel) Validate() error {
	if !validProb(m.ErrorRate) || !validProb(m.OmissionRate) || !validProb(m.VictimProb) {
		return fmt.Errorf("prob: error model probabilities out of [0,1]: error=%v omission=%v victim=%v",
			m.ErrorRate, m.OmissionRate, m.VictimProb)
	}
	if m.OmissionRate > 0 && m.Receivers <= 0 {
		return fmt.Errorf("prob: omission rate %v needs a positive receiver count", m.OmissionRate)
	}
	return nil
}

// RetransmitProb returns the per-attempt probability of a detected
// error (the geometric retransmission parameter of the analysis).
func (m ErrorModel) RetransmitProb() float64 { return m.ErrorRate }

// DeliveryLossProb returns the probability that a given receiver
// silently misses an (eventually successful) transmission: the
// delivering attempt is by definition not errored, so the conditional
// omission probability is OmissionRate, and each receiver is a victim
// with VictimProb.
func (m ErrorModel) DeliveryLossProb() float64 { return m.OmissionRate * m.VictimProb }

// FromInjector recovers the ErrorModel an injector samples, when it has
// one: RandomErrors, TargetedBitErrors (its victim's link), validated
// RandomOmissions, NoFaults/nil, and Chains of at most one omission
// injector combined with any number of error injectors. ok is false for
// injectors without a stationary per-attempt law (bursts, adversaries,
// arbitrary functions) — those cannot be admitted against.
func FromInjector(in can.Injector) (m ErrorModel, ok bool) {
	switch v := in.(type) {
	case nil, can.NoFaults:
		return ErrorModel{}, true
	case can.RandomErrors:
		return ErrorModel{ErrorRate: v.Rate}, true
	case can.TargetedBitErrors:
		if v.Active != nil || v.Prio >= 0 {
			return ErrorModel{}, false // gated or prio-filtered: not stationary
		}
		return ErrorModel{ErrorRate: v.Rate}, true
	case can.RandomOmissions:
		return ErrorModel{OmissionRate: v.Rate, VictimProb: v.VictimProb, Receivers: v.Receivers}, true
	case can.Chain:
		var out ErrorModel
		haveOmission := false
		for _, el := range v {
			em, elOK := FromInjector(el)
			if !elOK {
				return ErrorModel{}, false
			}
			if em.ErrorRate > 0 && haveOmission {
				// An error injector behind an omission injector is
				// conditioned on the omission draw missing; the simple
				// composition below would misstate it.
				return ErrorModel{}, false
			}
			if em.OmissionRate > 0 {
				if haveOmission {
					return ErrorModel{}, false
				}
				haveOmission = true
				out.OmissionRate = em.OmissionRate
				out.VictimProb = em.VictimProb
				out.Receivers = em.Receivers
			}
			// Error components compose as independent first-hit draws:
			// 1-(1-p1)(1-p2).
			out.ErrorRate = 1 - (1-out.ErrorRate)*(1-em.ErrorRate)
		}
		return out, true
	}
	return ErrorModel{}, false
}
