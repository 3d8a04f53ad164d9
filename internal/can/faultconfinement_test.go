package can

import (
	"testing"

	"canec/internal/sim"
)

func TestErrorCountersTrackSpec(t *testing.T) {
	k, b := rig(2, 1)
	b.ConfineFaults = true
	b.Injector = AdversarialK{K: 3, Prio: -1}
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1)}, SubmitOpts{})
	k.RunUntilIdle()
	// 3 errors (+8 each) then 1 success (−1): TEC = 23.
	if got := b.Controller(0).TEC(); got != 23 {
		t.Fatalf("TEC = %d, want 23", got)
	}
	// The receiver saw 3 error frames (+1 each) and 1 good frame (−1).
	if got := b.Controller(1).REC(); got != 2 {
		t.Fatalf("REC = %d, want 2", got)
	}
	if b.Controller(0).State() != ErrorActive {
		t.Fatalf("state = %v", b.Controller(0).State())
	}
}

func TestErrorPassiveThreshold(t *testing.T) {
	k, b := rig(2, 1)
	b.ConfineFaults = true
	b.Injector = AdversarialK{K: 17, Prio: -1} // 17×8 = 136 ≥ 128
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1)}, SubmitOpts{})
	k.Run(50 * sim.Millisecond)
	if st := b.Controller(0).State(); st != ErrorPassive {
		t.Fatalf("state = %v (TEC %d), want error-passive", st, b.Controller(0).TEC())
	}
}

func TestBusOffAndRecovery(t *testing.T) {
	k, b := rig(2, 1)
	b.ConfineFaults = true
	// Fail everything: the sender must go bus-off after 32 errors.
	b.Injector = RandomErrors{Rate: 1}
	okCalls := 0
	failCalls := 0
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1)}, SubmitOpts{
		Done: func(ok bool, _ sim.Time) {
			if ok {
				okCalls++
			} else {
				failCalls++
			}
		},
	})
	// 32 consecutive errors (TEC 32×8 = 256) take ≈3.4 ms; auto-recovery
	// (1408 bit times) completes before the horizon, so assert on the
	// recorded event and the abandoned request rather than the transient
	// state.
	k.Run(20 * sim.Millisecond)
	if b.Stats().BusOffEvents != 1 {
		t.Fatalf("BusOffEvents = %d, want 1", b.Stats().BusOffEvents)
	}
	if failCalls != 1 || okCalls != 0 {
		t.Fatalf("done calls ok=%d fail=%d, want exactly one failure", okCalls, failCalls)
	}
	if b.Controller(0).State() != ErrorActive {
		t.Fatalf("state after auto-recovery = %v", b.Controller(0).State())
	}
	// Bus heals; the recovered controller transmits again.
	b.Injector = NoFaults{}
	got := 0
	b.Controller(1).OnReceive = func(Frame, sim.Time) { got++ }
	k.At(k.Now()+5*sim.Millisecond, func() {
		b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 2)}, SubmitOpts{})
	})
	k.Run(k.Now() + 50*sim.Millisecond)
	if b.Controller(0).State() != ErrorActive {
		t.Fatalf("post-recovery state = %v", b.Controller(0).State())
	}
	if got != 1 {
		t.Fatalf("post-recovery deliveries = %d", got)
	}
}

func TestBusOffWithoutAutoRecover(t *testing.T) {
	k, b := rig(2, 1)
	b.ConfineFaults = true
	b.Controller(0).SetAutoRecover(false)
	b.Injector = RandomErrors{Rate: 1}
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1)}, SubmitOpts{})
	k.Run(100 * sim.Millisecond)
	if b.Controller(0).State() != BusOff {
		t.Fatal("controller not bus-off")
	}
	// Stays off until manual recovery.
	k.Run(k.Now() + 100*sim.Millisecond)
	if b.Controller(0).State() != BusOff {
		t.Fatal("controller recovered without permission")
	}
	b.Controller(0).Recover()
	if b.Controller(0).State() != ErrorActive || b.Controller(0).TEC() != 0 {
		t.Fatal("manual recovery failed")
	}
	// Recover on an active controller is a no-op.
	b.Controller(0).Recover()
}

func TestConfinementOffByDefault(t *testing.T) {
	k, b := rig(2, 1)
	b.Injector = RandomErrors{Rate: 1}
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1)}, SubmitOpts{})
	k.Run(20 * sim.Millisecond)
	if b.Controller(0).TEC() != 0 || b.Controller(0).State() != ErrorActive {
		t.Fatal("counters moved with confinement disabled")
	}
	// The frame keeps retransmitting forever — error-active assumption.
	if b.Stats().FramesError < 50 {
		t.Fatalf("expected continuous retransmission, errors = %d", b.Stats().FramesError)
	}
}

func TestErrorStateString(t *testing.T) {
	if ErrorActive.String() != "error-active" || ErrorPassive.String() != "error-passive" ||
		BusOff.String() != "bus-off" || ErrorState(99).String() != "?" {
		t.Fatal("state strings")
	}
}
