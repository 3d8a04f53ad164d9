package can

import (
	"testing"

	"canec/internal/sim"
)

// TestRecRule8 pins the receiver-side counter bookkeeping against Bosch
// §8, in particular rule 8: a successful reception normally decrements
// REC, but an error-passive receiver (REC > 127) snaps back to 127 on its
// first good frame instead of counting down one by one.
func TestRecRule8(t *testing.T) {
	cases := []struct {
		name    string
		rec     int
		success bool
		want    int
	}{
		{"success at floor stays at floor", 0, true, 0},
		{"success decrements", 1, true, 0},
		{"success below threshold decrements", 127, true, 126},
		{"rule 8: 128 snaps to 127", 128, true, 127},
		{"rule 8: deep passive snaps to 127", 200, true, 127},
		{"rule 8: saturated snaps to 127", 255, true, 127},
		{"error increments from zero", 0, false, 1},
		{"error crosses the passive threshold", 127, false, 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Controller{rec: tc.rec}
			if tc.success {
				c.onRxSuccess()
			} else {
				c.onRxError()
			}
			if c.rec != tc.want {
				t.Fatalf("REC %d after success=%v: got %d, want %d", tc.rec, tc.success, c.rec, tc.want)
			}
		})
	}
	// Rule 8 end to end: one good frame takes an error-passive receiver
	// back to error-active, and a single further receive error returns it.
	c := &Controller{rec: 128}
	if c.State() != ErrorPassive {
		t.Fatalf("state at REC 128 = %v", c.State())
	}
	c.onRxSuccess()
	if c.State() != ErrorActive || c.rec != 127 {
		t.Fatalf("after rule-8 snap: state %v REC %d", c.State(), c.rec)
	}
	c.onRxError()
	if c.State() != ErrorPassive {
		t.Fatalf("one receive error should re-enter passive, state %v", c.State())
	}
}

// TestTargetedBitErrorsJudge exercises the adversary injector's targeting
// logic: only the victim's attempts are corrupted, the priority filter and
// the Active gate suppress the attack, and the verdict is a consistent
// detected error (the victim sees its TEC ramp).
func TestTargetedBitErrorsJudge(t *testing.T) {
	k := sim.NewKernel(1)
	rng := k.RNG()
	victim := Frame{ID: MakeID(5, 0, 1)}
	cases := []struct {
		name string
		inj  TargetedBitErrors
		f    Frame
		from int
		want FaultKind
	}{
		{"victim corrupted", TargetedBitErrors{Victim: 0, Rate: 1, Prio: -1}, victim, 0, FaultError},
		{"bystander untouched", TargetedBitErrors{Victim: 0, Rate: 1, Prio: -1}, victim, 1, FaultNone},
		{"priority filter matches", TargetedBitErrors{Victim: 0, Rate: 1, Prio: 5}, victim, 0, FaultError},
		{"priority filter mismatch", TargetedBitErrors{Victim: 0, Rate: 1, Prio: 6}, victim, 0, FaultNone},
		{"rate zero never fires", TargetedBitErrors{Victim: 0, Rate: 0, Prio: -1}, victim, 0, FaultNone},
		{"isolated attacker silent",
			TargetedBitErrors{Victim: 0, Rate: 1, Prio: -1, Active: func() bool { return false }}, victim, 0, FaultNone},
		{"live attacker fires",
			TargetedBitErrors{Victim: 0, Rate: 1, Prio: -1, Active: func() bool { return true }}, victim, 0, FaultError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.inj.Judge(tc.f, tc.from, 1, 0, rng)
			if got.Kind != tc.want {
				t.Fatalf("Judge = %v, want %v", got.Kind, tc.want)
			}
		})
	}
}

// TestConfinementTraceKinds asserts the bus emits the confinement
// transition traces in spec order with TEC snapshots: error-passive on
// crossing 128, bus-off on crossing 256 with the pending frame flushed,
// and bus-off-recover with cleared counters after 128×11 recessive bits.
func TestConfinementTraceKinds(t *testing.T) {
	k, b := rig(2, 1)
	b.ConfineFaults = true
	b.Injector = RandomErrors{Rate: 1}
	type transition struct {
		kind TraceKind
		tec  int
	}
	var seen []transition
	b.Trace = func(e TraceEvent) {
		switch e.Kind {
		case TraceErrorPassive, TraceErrorActive, TraceBusOff, TraceBusOffRecover:
			if e.Sender == 0 {
				seen = append(seen, transition{e.Kind, e.TEC})
			}
		}
	}
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1)}, SubmitOpts{})
	k.Run(20 * sim.Millisecond)
	want := []transition{
		{TraceErrorPassive, errorPassiveTEC},
		{TraceBusOff, busOffTEC},
		{TraceBusOffRecover, 0},
	}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d = %+v, want %+v", i, seen[i], want[i])
		}
	}

	// The fourth kind: a passive sender that heals through successes
	// re-enters error-active without passing through bus-off.
	k2, b2 := rig(2, 2)
	b2.ConfineFaults = true
	b2.Injector = AdversarialK{K: 16, Prio: -1} // 16×8 = 128: exactly passive
	var kinds []TraceKind
	b2.Trace = func(e TraceEvent) {
		switch e.Kind {
		case TraceErrorPassive, TraceErrorActive, TraceBusOff, TraceBusOffRecover:
			if e.Sender == 0 {
				kinds = append(kinds, e.Kind)
			}
		}
	}
	b2.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1)}, SubmitOpts{})
	k2.RunUntilIdle() // 16 errors then success: TEC 127, already active again
	b2.Injector = NoFaults{}
	if len(kinds) != 2 || kinds[0] != TraceErrorPassive || kinds[1] != TraceErrorActive {
		t.Fatalf("heal transitions = %v, want [error-passive error-active]", kinds)
	}
}

// TestConfinementOffHotPathAllocs pins the cost of the confinement plane
// when it is off (the default every experiment and benchmark runs with):
// the submit→arbitrate→complete hot path must allocate exactly as much as
// before the feature existed, and enabling confinement on a healthy bus
// must not add a single allocation either — the counters only move, and
// only transitions trace.
func TestConfinementOffHotPathAllocs(t *testing.T) {
	measure := func(confine bool) float64 {
		k, b := rig(2, 1)
		b.ConfineFaults = confine
		f := Frame{ID: MakeID(5, 0, 1)}
		return testing.AllocsPerRun(500, func() {
			b.Controller(0).Submit(f, SubmitOpts{})
			k.RunUntilIdle()
		})
	}
	off := measure(false)
	on := measure(true)
	if off != on {
		t.Fatalf("healthy hot path: %.2f allocs/frame confinement-off vs %.2f on, want equal", off, on)
	}
	// The absolute pin: a full frame cycle on the off path measures 1
	// (the request record, which holds the payload copy). If this grows,
	// BENCH_seed comparisons will catch it too — fail here first with a
	// number attached.
	if off > 1 {
		t.Fatalf("confinement-off hot path allocates %.2f per frame, want <= 1", off)
	}
}
