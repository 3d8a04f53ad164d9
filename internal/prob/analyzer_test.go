package prob

import (
	"math"
	"testing"

	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/sim"
)

// TestPointMassRecoversCalendarWCTT pins the degenerate special case:
// with the deterministic point-mass error model (exactly k errors per
// transmission), an isolated channel's response-time distribution
// collapses to a point mass at calendar.Config.WCTT — the omission-
// degree-k dimensioning the HRT slot calendar uses.
func TestPointMassRecoversCalendarWCTT(t *testing.T) {
	for _, k := range []int{0, 1, 2, 3} {
		for _, payload := range []int{1, 4, 8} {
			a := Analyzer{Deterministic: true, OmissionDegree: k}
			set := []Msg{{Prio: 5, Period: 10 * sim.Millisecond, Payload: payload,
				Deadline: 5 * sim.Millisecond}}
			res, err := a.Response(set, 0)
			if err != nil {
				t.Fatalf("k=%d payload=%d: %v", k, payload, err)
			}
			cfg := calendar.Config{BitRate: can.DefaultBitRate, OmissionDegree: k}
			want := cfg.WCTT(payload)
			got, ok := res.Dist.Quantile(1)
			if !ok {
				t.Fatalf("k=%d payload=%d: distribution overflowed", k, payload)
			}
			if got != want {
				t.Errorf("k=%d payload=%d: point mass at %v, calendar WCTT %v", k, payload, got, want)
			}
			var m float64
			for _, pi := range res.Dist.p {
				m += pi
			}
			if math.Abs(m-1) > 1e-12 {
				t.Errorf("k=%d payload=%d: mass %v", k, payload, m)
			}
			if res.MissProb != 0 && want <= set[0].Deadline {
				t.Errorf("k=%d payload=%d: miss prob %v for WCTT %v within deadline", k, payload, res.MissProb, want)
			}
		}
	}
}

// TestGeometricMissProbIsolated checks the convolved miss probability
// of an isolated channel against the closed-form geometric tail: a
// deadline that tolerates n errors is missed with probability p^(n+1).
func TestGeometricMissProbIsolated(t *testing.T) {
	const p = 0.2
	payload := 8
	a := Analyzer{Model: ErrorModel{ErrorRate: p}, MaxErrors: 40}
	frame := can.BitTime(can.WorstCaseBits(payload), can.DefaultBitRate)
	errf := can.BitTime(can.ErrorOverheadBits, can.DefaultBitRate)
	for n := 0; n <= 3; n++ {
		// Deadline strictly between the n-error and (n+1)-error atoms.
		deadline := frame + sim.Duration(n)*(frame+errf) + (frame+errf)/2
		set := []Msg{{Prio: 5, Period: 50 * sim.Millisecond, Payload: payload, Deadline: deadline}}
		res, err := a.Response(set, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := math.Pow(p, float64(n+1))
		if math.Abs(res.MissProb-want) > 1e-9 {
			t.Errorf("n=%d: miss prob %v, want %v", n, res.MissProb, want)
		}
	}
}

// TestResponseStochasticallyDominates asserts the analysis is monotone
// in the error rate: a higher per-attempt error probability never
// lowers any tail probability (first-order stochastic dominance), which
// is what makes "raise the rate on error-state events and re-evaluate"
// a sound shedding trigger.
func TestResponseStochasticallyDominates(t *testing.T) {
	set := []Msg{
		{Prio: 1, Period: 2 * sim.Millisecond, Payload: 8, Deadline: 2 * sim.Millisecond},
		{Prio: 2, Period: 4 * sim.Millisecond, Payload: 8, Deadline: 4 * sim.Millisecond},
	}
	lo := Analyzer{Model: ErrorModel{ErrorRate: 0.05}}
	hi := Analyzer{Model: ErrorModel{ErrorRate: 0.25}}
	rl, err := lo.Response(set, 1)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := hi.Response(set, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []sim.Duration{500 * sim.Microsecond, sim.Millisecond,
		2 * sim.Millisecond, 4 * sim.Millisecond} {
		if rh.Dist.TailAbove(q) < rl.Dist.TailAbove(q)-1e-12 {
			t.Errorf("tail above %v: hi %v < lo %v", q,
				rh.Dist.TailAbove(q), rl.Dist.TailAbove(q))
		}
	}
	if rh.MissProb < rl.MissProb {
		t.Errorf("miss prob not monotone: hi %v < lo %v", rh.MissProb, rl.MissProb)
	}
}

// TestUnschedulableSet mirrors baseline's divergence behaviour.
func TestUnschedulableSet(t *testing.T) {
	set := []Msg{
		{Prio: 1, Period: 100 * sim.Microsecond, Payload: 8},
		{Prio: 2, Period: 150 * sim.Microsecond, Payload: 8, Deadline: sim.Millisecond},
	}
	a := Analyzer{}
	if _, err := a.Response(set, 1); err == nil {
		t.Fatal("expected divergence for a saturated set")
	}
}

// TestDistOverflowConservative checks that truncation charges mass to
// the overflow, so MissProb stays an upper bound.
func TestDistOverflowConservative(t *testing.T) {
	a := Analyzer{Model: ErrorModel{ErrorRate: 0.5}, MaxErrors: 2,
		Horizon: 2 * sim.Millisecond}
	set := []Msg{{Prio: 5, Period: 50 * sim.Millisecond, Payload: 8,
		Deadline: sim.Millisecond}}
	res, err := a.Response(set, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist.over <= 0 {
		t.Fatal("expected truncated mass in the overflow")
	}
	// Exact tail: the deadline tolerates four errors (160 + 183×n µs
	// ≤ 1 ms for n ≤ 4), so the frame misses with p^5.
	want := math.Pow(0.5, 5)
	if res.MissProb < want-1e-9 {
		t.Errorf("truncated miss prob %v below exact %v: not conservative", res.MissProb, want)
	}
}
