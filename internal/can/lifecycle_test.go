package can

import (
	"testing"

	"canec/internal/sim"
)

// TestDetachFlushesAndCorruptsInFlight: a node crash mid-transmission must
// end the attempt in an error frame (no receiver gets the truncated frame)
// and flush every queued request without invoking Done callbacks.
func TestDetachFlushesAndCorruptsInFlight(t *testing.T) {
	k, b := rig(3, 1)
	received := 0
	b.Controller(1).OnReceive = func(Frame, sim.Time) { received++ }
	b.Controller(2).OnReceive = func(Frame, sim.Time) { received++ }
	doneCalls := 0
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1), Data: make([]byte, 8)},
		SubmitOpts{Done: func(bool, sim.Time) { doneCalls++ }})
	b.Controller(0).Submit(Frame{ID: MakeID(6, 0, 2), Data: make([]byte, 8)},
		SubmitOpts{Done: func(bool, sim.Time) { doneCalls++ }})

	// Let arbitration start the first frame, then crash mid-transmission.
	k.Run(10 * sim.Microsecond)
	if !b.busy {
		t.Fatal("first frame should be on the wire")
	}
	b.Controller(0).Detach()
	if b.Controller(0).Pending() != 0 {
		t.Fatalf("pending after Detach = %d", b.Controller(0).Pending())
	}
	k.RunUntilIdle()

	if received != 0 {
		t.Fatalf("receivers got %d frames from a crashed node", received)
	}
	if doneCalls != 0 {
		t.Fatalf("Done callbacks ran %d times on a crashed node", doneCalls)
	}
	st := b.Stats()
	if st.FramesError != 1 {
		t.Fatalf("FramesError = %d, want 1 (truncated frame)", st.FramesError)
	}
	if st.FramesOK != 0 {
		t.Fatalf("FramesOK = %d, want 0", st.FramesOK)
	}
}

// TestDetachReattachResumesTraffic: after a Reattach the controller can
// transmit again (fresh node software reconfigures and submits).
func TestDetachReattachResumesTraffic(t *testing.T) {
	k, b := rig(2, 1)
	got := 0
	b.Controller(1).OnReceive = func(Frame, sim.Time) { got++ }

	b.Controller(0).Detach()
	b.Controller(0).Reattach()
	if b.Controller(0).Muted() {
		t.Fatal("still muted after Reattach")
	}
	b.Controller(0).Submit(Frame{ID: MakeID(9, 0, 3), Data: []byte{1}}, SubmitOpts{})
	k.RunUntilIdle()
	if got != 1 {
		t.Fatalf("deliveries after reattach = %d, want 1", got)
	}
}

// prioGuardian mutes every frame at or above (numerically at or below) a
// priority threshold, isolating the sender after limit violations.
type prioGuardian struct {
	limit      int
	violations map[int]int
}

func (g *prioGuardian) Judge(f Frame, sender int, _ sim.Time) GuardianVerdict {
	if f.ID.Prio() > 0 {
		return GuardAllow
	}
	if g.violations == nil {
		g.violations = make(map[int]int)
	}
	g.violations[sender]++
	if g.limit > 0 && g.violations[sender] >= g.limit {
		return GuardMuteNode
	}
	return GuardMuteFrame
}

// TestGuardianMutesFrames: muted frames never reach the wire, their Done
// callbacks observe failure, and verdicts are counted and traced.
func TestGuardianMutesFrames(t *testing.T) {
	k, b := rig(2, 1)
	b.Guardian = &prioGuardian{}
	var mutes []TraceEvent
	b.Trace = func(e TraceEvent) {
		if e.Kind == TraceGuardMute {
			mutes = append(mutes, e)
		}
	}
	delivered := 0
	b.Controller(1).OnReceive = func(Frame, sim.Time) { delivered++ }

	okResults := []bool{}
	b.Controller(0).Submit(Frame{ID: MakeID(0, 0, 7), Data: []byte{1}},
		SubmitOpts{Done: func(ok bool, _ sim.Time) { okResults = append(okResults, ok) }})
	b.Controller(0).Submit(Frame{ID: MakeID(40, 0, 8), Data: []byte{2}},
		SubmitOpts{Done: func(ok bool, _ sim.Time) { okResults = append(okResults, ok) }})
	k.RunUntilIdle()

	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (only the prio-40 frame)", delivered)
	}
	if len(okResults) != 2 || okResults[0] != false || okResults[1] != true {
		t.Fatalf("done results = %v, want [false true]", okResults)
	}
	if b.Stats().GuardianMuted != 1 {
		t.Fatalf("GuardianMuted = %d, want 1", b.Stats().GuardianMuted)
	}
	if len(mutes) != 1 || mutes[0].Sender != 0 || mutes[0].Frame.ID.Prio() != 0 {
		t.Fatalf("trace events = %+v", mutes)
	}
}

// TestGuardianIsolatesBabbler: after the violation limit the whole
// controller is muted, so even its later well-formed traffic stays off the
// bus while other nodes proceed.
func TestGuardianIsolatesBabbler(t *testing.T) {
	k, b := rig(3, 1)
	b.Guardian = &prioGuardian{limit: 2}
	delivered := map[TxNode]int{}
	b.Controller(2).OnReceive = func(f Frame, _ sim.Time) { delivered[f.ID.TxNode()]++ }

	// Node 0 babbles at priority 0; node 1 sends legitimate traffic.
	for i := 0; i < 4; i++ {
		b.Controller(0).Submit(Frame{ID: MakeID(0, 0, Etag(i+1)), Data: []byte{byte(i)}}, SubmitOpts{})
	}
	b.Controller(1).Submit(Frame{ID: MakeID(50, 1, 9), Data: []byte{7}}, SubmitOpts{})
	k.RunUntilIdle()

	if delivered[0] != 0 {
		t.Fatalf("babbler delivered %d frames", delivered[0])
	}
	if delivered[1] != 1 {
		t.Fatalf("legitimate node delivered %d frames, want 1", delivered[1])
	}
	st := b.Stats()
	if st.GuardianIsolated != 1 {
		t.Fatalf("GuardianIsolated = %d, want 1", st.GuardianIsolated)
	}
	if st.GuardianMuted != 2 {
		t.Fatalf("GuardianMuted = %d, want 2 (limit reached on the second)", st.GuardianMuted)
	}
	if !b.Controller(0).Muted() {
		t.Fatal("babbler not muted")
	}
	// The two frames still queued behind the isolation stay pending but
	// harmless; a Reattach (maintenance action) would resume them.
	if b.Controller(0).Pending() != 2 {
		t.Fatalf("pending = %d, want 2", b.Controller(0).Pending())
	}
}
