package calendar

import (
	"testing"

	"canec/internal/can"
	"canec/internal/sim"
)

func guardianFixture(t *testing.T, limit int) (*Guardian, Slot) {
	t.Helper()
	cfg := DefaultConfig()
	cal, err := PackSequential(cfg, sim.Millisecond,
		Slot{Subject: 1, Publisher: 2, Payload: 8, Periodic: true})
	if err != nil {
		t.Fatal(err)
	}
	return NewGuardian(cal, sim.Time(500*sim.Microsecond), limit), cal.Slots[0]
}

func TestGuardianAllowsScheduledTraffic(t *testing.T) {
	g, s := guardianFixture(t, 0)
	cal := g.Cal
	owned := can.Frame{ID: can.MakeID(0, 2, 10)}

	// Inside the slot window of round 0 and of a later round.
	for _, r := range []int64{0, 5} {
		at := g.Epoch + sim.Time(r)*sim.Time(cal.Round) + sim.Time(s.LST(cal.Cfg))
		if v := g.Judge(owned, 2, at); v != can.GuardAllow {
			t.Fatalf("round %d: verdict %v, want allow", r, v)
		}
	}
	// Slack: local clocks may start the frame slightly before the global
	// window opens.
	early := g.Epoch + sim.Time(s.Ready) - sim.Time(cal.Cfg.GapMin)/2
	if v := g.Judge(owned, 2, early); v != can.GuardAllow {
		t.Fatalf("within slack: verdict %v, want allow", v)
	}
	// Non-HRT priorities are never vetted, wherever they occur.
	srt := can.Frame{ID: can.MakeID(100, 5, 77)}
	if v := g.Judge(srt, 5, g.Epoch+sim.Time(cal.Round)/2); v != can.GuardAllow {
		t.Fatalf("SRT frame: verdict %v, want allow", v)
	}
	if g.violations[2] != 0 || g.violations[5] != 0 {
		t.Fatal("legitimate traffic counted as violations")
	}
}

func TestGuardianMutesCalendarViolations(t *testing.T) {
	g, s := guardianFixture(t, 0)
	cal := g.Cal
	inWindow := g.Epoch + sim.Time(s.LST(cal.Cfg))
	outside := g.Epoch + sim.Time(cal.Round) - sim.Time(50*sim.Microsecond)

	// Right slot owner, wrong time.
	if v := g.Judge(can.Frame{ID: can.MakeID(0, 2, 10)}, 2, outside); v != can.GuardMuteFrame {
		t.Fatalf("outside window: verdict %v, want mute", v)
	}
	// Right time, node without any slot (the babbling idiot).
	if v := g.Judge(can.Frame{ID: can.MakeID(0, 3, 10)}, 3, inWindow); v != can.GuardMuteFrame {
		t.Fatalf("slotless node: verdict %v, want mute", v)
	}
	if g.violations[2] != 1 || g.violations[3] != 1 {
		t.Fatalf("violations = %d/%d, want 1/1", g.violations[2], g.violations[3])
	}
}

func TestGuardianEscalatesToIsolation(t *testing.T) {
	g, _ := guardianFixture(t, 3)
	cal := g.Cal
	babble := can.Frame{ID: can.MakeID(0, 3, 99)}
	outside := g.Epoch + sim.Time(cal.Round) - sim.Time(50*sim.Microsecond)

	for i := 1; i <= 2; i++ {
		if v := g.Judge(babble, 3, outside); v != can.GuardMuteFrame {
			t.Fatalf("violation %d: verdict %v, want frame mute", i, v)
		}
	}
	if v := g.Judge(babble, 3, outside); v != can.GuardMuteNode {
		t.Fatalf("violation 3: verdict %v, want node isolation", v)
	}
	if g.violations[3] != 3 {
		t.Fatalf("violations = %d, want 3", g.violations[3])
	}
}

func TestGuardianSlotTargetedFastPath(t *testing.T) {
	g, s := guardianFixture(t, 100) // generic limit far away
	g.SlotTargetedLimit = 2
	cal := g.Cal
	inWindow := g.Epoch + sim.Time(s.LST(cal.Cfg))
	outside := g.Epoch + sim.Time(cal.Round) - sim.Time(50*sim.Microsecond)
	attack := can.Frame{ID: can.MakeID(0, 8, 99)}

	// A violation inside the victim's window carries the bus-off-attack
	// timing signature: counted separately, escalated after 2 hits even
	// though the generic limit (100) is nowhere near.
	if v := g.Judge(attack, 8, inWindow); v != can.GuardMuteFrame {
		t.Fatalf("targeted violation 1: verdict %v, want frame mute", v)
	}
	if g.slotTargeted[8] != 1 || g.violations[8] != 1 {
		t.Fatalf("counts = %d targeted / %d total, want 1/1",
			g.slotTargeted[8], g.violations[8])
	}
	at2 := inWindow + sim.Time(cal.Round)
	if v := g.Judge(attack, 8, at2); v != can.GuardMuteNode {
		t.Fatalf("targeted violation 2: verdict %v, want node isolation", v)
	}

	// A plain babbler outside every window never trips the fast path.
	babble := can.Frame{ID: can.MakeID(0, 3, 77)}
	for i := 0; i < 5; i++ {
		if v := g.Judge(babble, 3, outside); v != can.GuardMuteFrame {
			t.Fatalf("untargeted violation %d: verdict %v, want frame mute", i+1, v)
		}
	}
	if g.slotTargeted[3] != 0 || g.violations[3] != 5 {
		t.Fatalf("babbler counts = %d targeted / %d total, want 0/5",
			g.slotTargeted[3], g.violations[3])
	}

	// SlotTargetedLimit 0 disables the fast path: slot-timed hits still
	// count but only the generic limit isolates.
	g2, s2 := guardianFixture(t, 0)
	in2 := g2.Epoch + sim.Time(s2.LST(g2.Cal.Cfg))
	for i := 0; i < 4; i++ {
		if v := g2.Judge(attack, 8, in2+sim.Time(int64(i)*int64(g2.Cal.Round))); v != can.GuardMuteFrame {
			t.Fatalf("fast path disabled, hit %d: verdict %v, want frame mute", i+1, v)
		}
	}
	if g2.slotTargeted[8] != 4 {
		t.Fatalf("targeted count with fast path off = %d, want 4", g2.slotTargeted[8])
	}
}

func TestGuardianRespectsMultiRatePhases(t *testing.T) {
	cfg := DefaultConfig()
	cal, err := PackSequential(cfg, sim.Millisecond,
		Slot{Subject: 1, Publisher: 2, Payload: 8, Every: 2, Phase: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGuardian(cal, 0, 0)
	s := cal.Slots[0]
	f := can.Frame{ID: can.MakeID(0, 2, 10)}

	// Round 0 is not in the slot's phase; round 1 is.
	at0 := sim.Time(s.LST(cfg))
	at1 := sim.Time(cal.Round) + sim.Time(s.LST(cfg))
	if v := g.Judge(f, 2, at0); v != can.GuardMuteFrame {
		t.Fatalf("inactive round: verdict %v, want mute", v)
	}
	if v := g.Judge(f, 2, at1); v != can.GuardAllow {
		t.Fatalf("active round: verdict %v, want allow", v)
	}
}
