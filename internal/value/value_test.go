package value

import (
	"math"
	"testing"
	"testing/quick"

	"canec/internal/sim"
)

func TestStep(t *testing.T) {
	f := Step{}
	if f.At(-sim.Second) != 1 || f.At(0) != 1 {
		t.Fatal("on-time value must be 1")
	}
	if f.At(1) != 0 {
		t.Fatal("late value must be 0")
	}
}

func TestLinear(t *testing.T) {
	f := Linear{Grace: 10 * sim.Millisecond}
	if f.At(0) != 1 {
		t.Fatal("at deadline")
	}
	if got := f.At(5 * sim.Millisecond); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("mid-grace value = %v", got)
	}
	if f.At(10*sim.Millisecond) != 0 || f.At(sim.Second) != 0 {
		t.Fatal("post-grace value must be 0")
	}
	if (Linear{}).At(1) != 0 {
		t.Fatal("zero grace must be a step")
	}
}

func TestExponential(t *testing.T) {
	f := Exponential{HalfLife: 4 * sim.Millisecond}
	if f.At(0) != 1 {
		t.Fatal("at deadline")
	}
	if got := f.At(4 * sim.Millisecond); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("half-life value = %v", got)
	}
	if got := f.At(8 * sim.Millisecond); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("two half-lives value = %v", got)
	}
	if (Exponential{}).At(1) != 0 {
		t.Fatal("zero half-life must be a step")
	}
}

func TestPlateau(t *testing.T) {
	f := Plateau{After: 0.3, Grace: 5 * sim.Millisecond}
	if f.At(0) != 1 || f.At(sim.Millisecond) != 0.3 || f.At(5*sim.Millisecond) != 0 {
		t.Fatal("plateau shape wrong")
	}
}

func TestAllNonIncreasing(t *testing.T) {
	fns := []Function{
		Step{},
		Linear{Grace: 7 * sim.Millisecond},
		Exponential{HalfLife: 3 * sim.Millisecond},
		Plateau{After: 0.5, Grace: 9 * sim.Millisecond},
	}
	check := func(aRaw, bRaw uint32) bool {
		a, b := sim.Duration(aRaw), sim.Duration(bRaw)
		if a > b {
			a, b = b, a
		}
		for _, f := range fns {
			if f.At(a) < f.At(b) {
				return false
			}
			if v := f.At(a); v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestExpirationFor(t *testing.T) {
	deadline := sim.Time(100 * sim.Millisecond)
	horizon := sim.Duration(sim.Second)

	// Hard deadline: expiration == deadline.
	if got := ExpirationFor(Step{}, deadline, 0.5, horizon); got != deadline {
		t.Fatalf("step expiration = %v", got)
	}
	// Linear with 10 ms grace, threshold 0.25 → expiration ≈ deadline+7.5ms.
	got := ExpirationFor(Linear{Grace: 10 * sim.Millisecond}, deadline, 0.25, horizon)
	want := deadline + 7500*sim.Microsecond
	if got < want-2*sim.Microsecond || got > want+2*sim.Microsecond {
		t.Fatalf("linear expiration = %v, want ≈%v", got, want)
	}
	// Exponential with huge half-life never crosses within the horizon.
	if got := ExpirationFor(Exponential{HalfLife: sim.Second}, deadline, 0.1, 100*sim.Millisecond); got != 0 {
		t.Fatalf("non-expiring function returned %v", got)
	}
}

func TestExpirationForConsistent(t *testing.T) {
	// Property: the value just before the derived expiration is ≥ the
	// threshold; just after, it is below.
	f := func(graceMs uint16, thresholdRaw uint8) bool {
		grace := sim.Duration(graceMs%100+1) * sim.Millisecond
		threshold := 0.05 + 0.9*float64(thresholdRaw)/255
		fn := Linear{Grace: grace}
		deadline := sim.Time(50 * sim.Millisecond)
		exp := ExpirationFor(fn, deadline, threshold, sim.Second)
		if exp == 0 {
			return false // linear always expires
		}
		late := exp - deadline
		return fn.At(late-2*sim.Microsecond) >= threshold &&
			fn.At(late+2*sim.Microsecond) < threshold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
