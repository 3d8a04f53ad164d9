package prob

import (
	"math"
	"testing"

	"canec/internal/can"
	"canec/internal/sim"
)

// Injector returns the fault injector that samples exactly this model:
// the same parameters the analyzer convolves drive the chaos campaign.
// It panics on an invalid model (call Validate first when parameters
// come from configuration); a zero model yields can.NoFaults.
func (m ErrorModel) Injector() can.Injector {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	var ch can.Chain
	if m.ErrorRate > 0 {
		ch = append(ch, can.RandomErrors{Rate: m.ErrorRate})
	}
	if m.OmissionRate > 0 && m.VictimProb > 0 {
		ch = append(ch, can.NewRandomOmissions(m.OmissionRate, m.VictimProb, m.Receivers))
	}
	if len(ch) == 0 {
		return can.NoFaults{}
	}
	if len(ch) == 1 {
		return ch[0]
	}
	return ch
}

// TestInjectorRoundTrip: Injector() and fromInjector are inverses, so
// the chaos harness and the analyzer provably share one distribution.
func TestInjectorRoundTrip(t *testing.T) {
	cases := []ErrorModel{
		{},
		{ErrorRate: 0.2},
		{OmissionRate: 0.1, VictimProb: 0.5, Receivers: 4},
		{ErrorRate: 0.15, OmissionRate: 0.05, VictimProb: 1, Receivers: 9},
	}
	for _, m := range cases {
		got, ok := fromInjector(m.Injector())
		if !ok {
			t.Fatalf("model %+v: fromInjector failed", m)
		}
		if math.Abs(got.ErrorRate-m.ErrorRate) > 1e-12 ||
			got.OmissionRate != m.OmissionRate || got.VictimProb != m.VictimProb {
			t.Errorf("model %+v round-tripped to %+v", m, got)
		}
	}
}

// TestFromInjectorRecognizers covers the single-injector cases and the
// rejections (non-stationary injectors cannot back an admission model).
func TestFromInjectorRecognizers(t *testing.T) {
	if m, ok := fromInjector(can.RandomErrors{Rate: 0.3}); !ok || m.ErrorRate != 0.3 {
		t.Errorf("RandomErrors: %+v ok=%v", m, ok)
	}
	if m, ok := fromInjector(can.TargetedBitErrors{Victim: 2, Rate: 0.4, Prio: -1}); !ok || m.ErrorRate != 0.4 {
		t.Errorf("TargetedBitErrors: %+v ok=%v", m, ok)
	}
	if _, ok := fromInjector(can.TargetedBitErrors{Victim: 2, Rate: 0.4, Prio: 3}); ok {
		t.Error("prio-filtered targeted injector must not map to a stationary model")
	}
	if _, ok := fromInjector(can.BurstErrors{Start: 0, End: sim.Time(sim.Millisecond)}); ok {
		t.Error("burst injector must not map to a stationary model")
	}
	if _, ok := fromInjector(can.AdversarialK{K: 2, Prio: -1}); ok {
		t.Error("adversarial injector must not map to a stationary model")
	}
	// Errors behind an omission draw are conditioned; refuse to fold.
	bad := can.Chain{
		can.NewRandomOmissions(0.1, 1, 4),
		can.RandomErrors{Rate: 0.2},
	}
	if _, ok := fromInjector(bad); ok {
		t.Error("omission-before-error chain must not fold")
	}
}

// TestModelMatchesInjectorEmpirically drives the injector returned by
// the model with the simulation RNG and checks the empirical per-attempt
// frequencies against the analytic probabilities the analyzer uses —
// the "no drift between what chaos injects and what admission assumes"
// guarantee, verified by sampling.
func TestModelMatchesInjectorEmpirically(t *testing.T) {
	m := ErrorModel{ErrorRate: 0.2, OmissionRate: 0.25, VictimProb: 0.8, Receivers: 5}
	inj := m.Injector()
	k := sim.NewKernel(42)
	rng := k.RNG()
	f := can.Frame{ID: can.MakeID(10, 0, 7), Data: []byte{1, 2, 3}}

	const trials = 200_000
	var errs, omits, victimHits int
	for i := 0; i < trials; i++ {
		v := inj.Judge(f, 0, 1, 0, rng)
		switch v.Kind {
		case can.FaultError:
			errs++
		case can.FaultOmission:
			omits++
			if v.Victims[3] {
				victimHits++
			}
		}
	}
	tol := 0.01
	if got := float64(errs) / trials; math.Abs(got-m.RetransmitProb()) > tol {
		t.Errorf("empirical error rate %v, model %v", got, m.RetransmitProb())
	}
	// Per-receiver loss: P[omission marked ∧ receiver victim] among
	// non-errored attempts. The analyzer's DeliveryLossProb conditions
	// on the delivering (non-errored) attempt.
	nonErr := trials - errs
	if got := float64(victimHits) / float64(nonErr); math.Abs(got-m.DeliveryLossProb()) > tol {
		t.Errorf("empirical per-receiver loss %v, model %v", got, m.DeliveryLossProb())
	}
	// Omission marking rate conditional on no error ≈ OmissionRate times
	// P[at least one victim] — with VictimProb 0.8 over 4 receivers the
	// no-victim case is negligible but still accounted for.
	pAny := 1 - math.Pow(1-m.VictimProb, float64(m.Receivers-1))
	if got := float64(omits) / float64(nonErr); math.Abs(got-m.OmissionRate*pAny) > tol {
		t.Errorf("empirical omission rate %v, model %v", got, m.OmissionRate*pAny)
	}
}

func TestModelValidate(t *testing.T) {
	if err := (ErrorModel{ErrorRate: 1.5}).Validate(); err == nil {
		t.Error("rate > 1 must fail validation")
	}
	if err := (ErrorModel{OmissionRate: 0.1, VictimProb: 1}).Validate(); err == nil {
		t.Error("omissions without a receiver count must fail validation")
	}
	if err := (ErrorModel{ErrorRate: 0.5, OmissionRate: 0.1, VictimProb: 1, Receivers: 3}).Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}
