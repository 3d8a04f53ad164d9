package edf

import (
	"testing"
	"testing/quick"

	"canec/internal/can"
	"canec/internal/sim"
)

func TestDefaultBand(t *testing.T) {
	b := DefaultBand()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Levels() != 250 {
		t.Fatalf("Levels = %d, want 250 (the paper's example)", b.Levels())
	}
	if b.Horizon() != 249*160*sim.Microsecond {
		t.Fatalf("Horizon = %v", b.Horizon())
	}
}

func TestValidate(t *testing.T) {
	if (Band{Min: 10, Max: 5, SlotLen: 1}).Validate() == nil {
		t.Fatal("inverted band accepted")
	}
	if (Band{Min: 1, Max: 250, SlotLen: 0}).Validate() == nil {
		t.Fatal("zero slot length accepted")
	}
}

func TestPrioForBoundaries(t *testing.T) {
	b := Band{Min: 1, Max: 250, SlotLen: 100 * sim.Microsecond}
	cases := []struct {
		lax  sim.Duration
		want can.Prio
	}{
		{-1 * sim.Millisecond, 1}, // past deadline: most urgent
		{0, 1},
		{1, 1},                         // within first slot
		{99 * sim.Microsecond, 1},      // still first slot
		{100 * sim.Microsecond, 2},     // second slot
		{150 * sim.Microsecond, 2},     //
		{24899 * sim.Microsecond, 249}, // last unsaturated slot
		{24900 * sim.Microsecond, 250}, // horizon: saturates
		{1 * sim.Second, 250},          // far future: saturates
	}
	now := sim.Time(10 * sim.Second)
	for _, c := range cases {
		if got := b.PrioFor(now, now+c.lax); got != c.want {
			t.Errorf("PrioFor(lax=%v) = %d, want %d", c.lax, got, c.want)
		}
	}
}

func TestPrioMonotoneInDeadline(t *testing.T) {
	// Earlier deadline must never map to a lower-urgency (numerically
	// higher) priority: this is what makes CAN arbitration implement EDF.
	b := DefaultBand()
	f := func(nowRaw uint32, d1Raw, d2Raw uint32) bool {
		now := sim.Time(nowRaw)
		d1 := now + sim.Time(d1Raw)
		d2 := now + sim.Time(d2Raw)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return b.PrioFor(now, d1) <= b.PrioFor(now, d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestPrioMonotoneInTime(t *testing.T) {
	// As time passes, a message's priority may only become more urgent.
	b := DefaultBand()
	f := func(t1Raw, t2Raw uint32, dRaw uint32) bool {
		t1, t2 := sim.Time(t1Raw), sim.Time(t2Raw)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		d := sim.Time(dRaw) + t1
		return b.PrioFor(t2, d) <= b.PrioFor(t1, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestPrioStaysInBand(t *testing.T) {
	b := Band{Min: 5, Max: 17, SlotLen: 33 * sim.Microsecond}
	f := func(nowRaw, dRaw uint32) bool {
		p := b.PrioFor(sim.Time(nowRaw), sim.Time(dRaw))
		return p >= b.Min && p <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestNextChangeAdvancesPriority(t *testing.T) {
	b := DefaultBand()
	now := sim.Time(1 * sim.Second)
	deadline := now + 10*b.SlotLen + b.SlotLen/2
	p0 := b.PrioFor(now, deadline)
	ch := b.NextChange(now, deadline)
	if ch <= now || ch > deadline {
		t.Fatalf("NextChange = %v outside (now, deadline]", ch)
	}
	// One nanosecond before the change instant the priority is unchanged;
	// at the instant it is strictly more urgent.
	if b.PrioFor(ch-1, deadline) != p0 {
		t.Fatalf("priority changed before NextChange instant")
	}
	if b.PrioFor(ch, deadline) >= p0 {
		t.Fatalf("priority did not become more urgent at NextChange")
	}
}

func TestNextChangeZeroWhenMostUrgent(t *testing.T) {
	b := DefaultBand()
	now := sim.Time(5 * sim.Second)
	if b.NextChange(now, now) != 0 {
		t.Fatal("NextChange at deadline should be 0")
	}
	if b.NextChange(now, now-sim.Second) != 0 {
		t.Fatal("NextChange past deadline should be 0")
	}
}

func TestNextChangeSaturated(t *testing.T) {
	b := DefaultBand()
	now := sim.Time(0)
	deadline := now + b.Horizon() + 5*sim.Millisecond
	if b.PrioFor(now, deadline) != b.Max {
		t.Fatal("expected saturated priority")
	}
	ch := b.NextChange(now, deadline)
	if ch == 0 {
		t.Fatal("saturated message must still have a change instant")
	}
	if b.PrioFor(ch, deadline) != b.Max-1 {
		t.Fatalf("after horizon entry priority = %d, want %d",
			b.PrioFor(ch, deadline), b.Max-1)
	}
}

func TestNextChangeChainTerminates(t *testing.T) {
	// Following NextChange repeatedly must walk the priority down to Min
	// in at most Levels() steps.
	b := Band{Min: 1, Max: 50, SlotLen: 100 * sim.Microsecond}
	now := sim.Time(777)
	deadline := now + 2*b.Horizon()
	steps := 0
	for {
		ch := b.NextChange(now, deadline)
		if ch == 0 {
			break
		}
		if ch <= now {
			t.Fatalf("NextChange did not advance: %v -> %v", now, ch)
		}
		now = ch
		steps++
		if steps > b.Levels()+1 {
			t.Fatal("promotion chain did not terminate")
		}
	}
	if b.PrioFor(now, deadline) != b.Min {
		t.Fatalf("chain ended at priority %d", b.PrioFor(now, deadline))
	}
}

func TestPromotionsCount(t *testing.T) {
	b := Band{Min: 1, Max: 250, SlotLen: 100 * sim.Microsecond}
	now := sim.Time(0)
	// Enqueued with laxity of 10.5 slots: passes slots 10..1, i.e. 10
	// promotions before reaching Min.
	if got := b.Promotions(now, now+1050*sim.Microsecond); got != 10 {
		t.Fatalf("Promotions = %d, want 10", got)
	}
	if got := b.Promotions(now, now); got != 0 {
		t.Fatalf("Promotions at deadline = %d", got)
	}
	// Beyond horizon saturates at Levels-1.
	if got := b.Promotions(now, now+sim.Time(10*b.Horizon())); got != b.Levels()-1 {
		t.Fatalf("Promotions beyond horizon = %d, want %d", got, b.Levels()-1)
	}
}

func TestPromotionsMatchesChangeChain(t *testing.T) {
	// Property: Promotions() equals the number of NextChange steps.
	b := Band{Min: 1, Max: 40, SlotLen: 50 * sim.Microsecond}
	f := func(laxRaw uint32) bool {
		now := sim.Time(123456)
		deadline := now + sim.Time(laxRaw%uint32(3*b.Horizon()))
		want := b.Promotions(now, deadline)
		steps := 0
		cur := now
		for {
			ch := b.NextChange(cur, deadline)
			if ch == 0 {
				break
			}
			cur = ch
			steps++
			if steps > b.Levels()+2 {
				return false
			}
		}
		return steps == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHorizonFormula(t *testing.T) {
	// ΔH = (P_max − P_min) · Δt_p, §3.4.
	b := Band{Min: 10, Max: 20, SlotLen: 7 * sim.Microsecond}
	if b.Horizon() != 70*sim.Microsecond {
		t.Fatalf("Horizon = %v", b.Horizon())
	}
}
