package core

import (
	"errors"
	"testing"

	"canec/internal/can"
	"canec/internal/prob"
	"canec/internal/sim"
)

// admissionConfig builds a standard SRT-controlled admission setup with
// the given planned per-attempt error rate.
func admissionConfig(targetSRT, plannedRate float64) *prob.AdmissionConfig {
	return &prob.AdmissionConfig{
		Targets:  prob.ClassTargets{SRT: targetSRT},
		Analyzer: prob.Analyzer{Model: prob.ErrorModel{ErrorRate: plannedRate}},
	}
}

// TestAdmissionAnnounceGate pins the announce-time behaviour: channels
// within the target are admitted, channels whose declared deadline
// cannot hold the target miss probability are refused with the typed
// *AdmissionError, and undeclared rates are refused outright.
func TestAdmissionAnnounceGate(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Nodes: 3, Seed: 1,
		Admission: admissionConfig(0.05, 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := sys.Node(0).MW.SRTEC(subjDiag)
	if err := ok.Announce(ChannelAttrs{Period: 5 * sim.Millisecond,
		RelDeadline: 3 * sim.Millisecond}, nil); err != nil {
		t.Fatalf("generous channel refused: %v", err)
	}

	tight, _ := sys.Node(1).MW.SRTEC(subjOther)
	err = tight.Announce(ChannelAttrs{Period: 5 * sim.Millisecond,
		RelDeadline: 100 * sim.Microsecond}, nil)
	var admErr *AdmissionError
	if !errors.As(err, &admErr) {
		t.Fatalf("tight channel: %v, want *AdmissionError", err)
	}
	if admErr.Reason != prob.ReasonMissProb {
		t.Fatalf("reason %v, want miss-probability", admErr.Reason)
	}
	if admErr.RetryAfter <= 0 || admErr.MissProb <= admErr.Target {
		t.Fatalf("rejection detail %+v", admErr)
	}
	// The refused channel never became announced: publishing fails.
	if err := tight.Publish(Event{Subject: subjOther, Payload: []byte{1}}); !errors.Is(err, ErrNotAnnounced) {
		t.Fatalf("publish on refused channel: %v", err)
	}

	undeclared, _ := sys.Node(2).MW.SRTEC(subjBulk)
	err = undeclared.Announce(ChannelAttrs{}, nil)
	if !errors.As(err, &admErr) || admErr.Reason != prob.ReasonUndeclared {
		t.Fatalf("undeclared channel: %v", err)
	}

	c := sys.TotalCounters()
	if c.AdmissionAdmitted != 1 || c.AdmissionRejected != 2 {
		t.Fatalf("counters admitted=%d rejected=%d", c.AdmissionAdmitted, c.AdmissionRejected)
	}
	// Cancelling returns the claim to the controller.
	ok.CancelPublication()
	if n := len(sys.Admission.Snapshot().Admitted); n != 0 {
		t.Fatalf("admitted set after cancel: %d", n)
	}
}

// TestAdmissionSurvivesRestart: a restarted station's fresh middleware
// answers to the same admission controller, so a channel refused at
// start-up is refused again when re-announced after the restart.
func TestAdmissionSurvivesRestart(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Nodes: 3, Seed: 1,
		Admission: admissionConfig(0.05, 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLifecycle(sys)
	tight := ChannelAttrs{Period: 5 * sim.Millisecond, RelDeadline: 100 * sim.Microsecond}
	announce := func(mw *Middleware) error {
		ch, err := mw.SRTEC(subjOther)
		if err != nil {
			t.Fatal(err)
		}
		return ch.Announce(tight, nil)
	}
	var admErr *AdmissionError
	if err := announce(sys.Node(1).MW); !errors.As(err, &admErr) {
		t.Fatalf("tight channel at start-up: %v, want *AdmissionError", err)
	}
	restarted := false
	lc.OnRestart = func(n int, mw *Middleware) {
		restarted = true
		if err := announce(mw); !errors.As(err, &admErr) {
			t.Errorf("tight channel after restart: %v, want *AdmissionError", err)
		}
	}
	sys.K.At(10*sim.Millisecond, func() {
		if err := lc.Crash(1); err != nil {
			t.Error(err)
		}
	})
	sys.K.At(20*sim.Millisecond, func() {
		if err := lc.Restart(1); err != nil {
			t.Error(err)
		}
	})
	sys.Run(200 * sim.Millisecond)
	if !restarted {
		t.Fatal("station 1 never completed its restart")
	}
}

// TestAdmissionNRTUncontrolled: without an NRT target the class is
// admitted unconditionally but still tracked as interference.
func TestAdmissionNRTUncontrolled(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Nodes: 2, Seed: 1,
		Admission: admissionConfig(0.05, 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	nrt, _ := sys.Node(0).MW.NRTEC(subjBulk)
	if err := nrt.Announce(ChannelAttrs{Prio: 252, Period: sim.Millisecond,
		RelDeadline: 200 * sim.Microsecond}, nil); err != nil {
		t.Fatalf("uncontrolled NRT refused: %v", err)
	}
	if n := len(sys.Admission.Snapshot().Admitted); n != 1 {
		t.Fatalf("NRT channel not tracked: %d", n)
	}
}

// TestReservedFromCalendar: HRT slots become reserved priority-0
// interference streams with the slot's period and payload.
func TestReservedFromCalendar(t *testing.T) {
	cal := testCalendar(t, 1)
	res := ReservedFromCalendar(cal)
	if len(res) != len(cal.Slots) {
		t.Fatalf("reserved %d, slots %d", len(res), len(cal.Slots))
	}
	for i, m := range res {
		if m.Prio != 0 || m.Period != cal.Slots[i].Period(cal.Round) || m.Payload != cal.Slots[i].Payload {
			t.Fatalf("reserved[%d] = %+v for slot %+v", i, m, cal.Slots[i])
		}
	}
}

// TestAdmissionShedOnErrorState drives the full loop through the bus:
// two channels are admitted under a low planned error rate, sustained
// injected bit errors push a controller into error-passive, the
// error-state hook re-measures the wire rate and the marginal channel —
// and only it — is shed with the typed exception, while the robust
// channel keeps publishing. No silent degradation: the shed publisher's
// next Publish fails loudly with ErrNotAnnounced.
func TestAdmissionShedOnErrorState(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Nodes: 3, Seed: 5,
		ConfineFaults: true,
		Injector:      can.RandomErrors{Rate: 0.4},
		Admission:     admissionConfig(0.02, 0.02),
	})
	if err != nil {
		t.Fatal(err)
	}
	var shedExc []Exception
	robust, _ := sys.Node(0).MW.SRTEC(subjDiag)
	if err := robust.Announce(ChannelAttrs{Period: 4 * sim.Millisecond,
		RelDeadline: 3500 * sim.Microsecond}, nil); err != nil {
		t.Fatalf("robust channel refused: %v", err)
	}
	// Marginal: with one interfering SRT transmission ahead (the robust
	// channel), the 600µs deadline tolerates exactly one error frame
	// across the busy window — a sub-percent miss at the planned 2%,
	// hopeless once the wire measures anywhere near the injected 40%.
	marginal, _ := sys.Node(1).MW.SRTEC(subjOther)
	if err := marginal.Announce(ChannelAttrs{Period: 4 * sim.Millisecond,
		RelDeadline: 600 * sim.Microsecond}, func(e Exception) {
		if e.Kind == ExcAdmissionShed {
			shedExc = append(shedExc, e)
		}
	}); err != nil {
		t.Fatalf("marginal channel refused under planned rate: %v", err)
	}

	var robustErrs, marginalRejected int
	for i := int64(0); i < 250; i++ {
		at := sim.Time(i) * sim.Time(4*sim.Millisecond)
		sys.K.At(at, func() {
			now := sys.Node(0).MW.LocalTime()
			if err := robust.Publish(Event{Subject: subjDiag, Payload: []byte{1},
				Attrs: EventAttrs{Deadline: now + 3500*sim.Microsecond}}); err != nil {
				robustErrs++
			}
			now = sys.Node(1).MW.LocalTime()
			if err := marginal.Publish(Event{Subject: subjOther, Payload: []byte{2},
				Attrs: EventAttrs{Deadline: now + 600*sim.Microsecond}}); errors.Is(err, ErrNotAnnounced) {
				marginalRejected++
			}
		})
	}
	sys.Run(sim.Time(1100 * sim.Millisecond))

	if len(shedExc) != 1 {
		t.Fatalf("AdmissionShed exceptions = %d, want exactly 1", len(shedExc))
	}
	if shedExc[0].Subject != subjOther {
		t.Fatalf("shed subject %v, want %v", shedExc[0].Subject, subjOther)
	}
	if marginalRejected == 0 {
		t.Fatal("shed channel still accepted publishes")
	}
	if robustErrs != 0 {
		t.Fatalf("robust channel saw %d publish errors", robustErrs)
	}
	c := sys.TotalCounters()
	if c.AdmissionShed != 1 {
		t.Fatalf("AdmissionShed counter = %d", c.AdmissionShed)
	}
	snap := sys.Admission.Snapshot()
	if snap.MeasuredRate < 0.15 {
		t.Fatalf("measured rate %v never reflected the injected faults", snap.MeasuredRate)
	}
	// The robust channel survived and still meets its target under the
	// measured rate.
	if len(snap.Admitted) != 1 || snap.Admitted[0].Channel.Subject != uint64(subjDiag) {
		t.Fatalf("survivors %+v", snap.Admitted)
	}
	if snap.Admitted[0].MissProb > 0.02 {
		t.Fatalf("survivor predicted miss %v above target", snap.Admitted[0].MissProb)
	}
}
