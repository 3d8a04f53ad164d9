package core

import (
	"errors"
	"testing"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/sim"
	"canec/internal/value"
)

// floodSetup saturates the bus with raw priority-1 frames (above the
// whole SRT band) so queued SRT events cannot drain, forcing the
// shedding path. Frames chain through Done, keeping the bus 100% busy.
func floodSetup(sys *System, until sim.Time) {
	ctrl := sys.Node(1).Ctrl
	var next func()
	next = func() {
		if sys.K.Now() > until {
			return
		}
		ctrl.Submit(can.Frame{
			ID:   can.MakeID(1, ctrl.Node(), 12345),
			Data: make([]byte, 8),
		}, can.SubmitOpts{Done: func(bool, sim.Time) { next() }})
	}
	sys.K.At(0, next)
}

func TestValueBasedSheddingKeepsHighValueEvents(t *testing.T) {
	sys := idealSystem(t, 3, nil)
	sys.Node(0).MW.MaxQueuedSRT = 4

	// Channel A: high residual value late (plateau); channel B: hard
	// deadline (step: worthless immediately after the deadline).
	chA, _ := sys.Node(0).MW.SRTEC(subjDiag)
	shedA := 0
	chA.Announce(ChannelAttrs{Value: value.Plateau{After: 0.9, Grace: sim.Second}},
		func(e Exception) {
			if e.Kind == ExcLoadShed {
				shedA++
			}
		})
	chB, _ := sys.Node(0).MW.SRTEC(subjBulk)
	shedB := 0
	chB.Announce(ChannelAttrs{Value: value.Step{}}, func(e Exception) {
		if e.Kind == ExcLoadShed {
			shedB++
		}
	})

	floodSetup(sys, 50*sim.Millisecond)
	// At 1 ms, queue 2 events per channel with deadlines that pass at 2 ms;
	// at 10 ms (deadlines passed: A's value 0.9, B's 0) publish more to
	// trigger shedding.
	sys.K.At(sim.Millisecond, func() {
		now := sys.Node(0).MW.LocalTime()
		for i := 0; i < 2; i++ {
			chA.Publish(Event{Subject: subjDiag, Payload: []byte{0xA0},
				Attrs: EventAttrs{Deadline: now + sim.Millisecond}})
			chB.Publish(Event{Subject: subjBulk, Payload: []byte{0xB0},
				Attrs: EventAttrs{Deadline: now + sim.Millisecond}})
		}
	})
	sys.K.At(10*sim.Millisecond, func() {
		now := sys.Node(0).MW.LocalTime()
		chA.Publish(Event{Subject: subjDiag, Payload: []byte{0xA1},
			Attrs: EventAttrs{Deadline: now + 100*sim.Millisecond}})
		chA.Publish(Event{Subject: subjDiag, Payload: []byte{0xA2},
			Attrs: EventAttrs{Deadline: now + 100*sim.Millisecond}})
	})
	sys.Run(100 * sim.Millisecond)

	// The two worthless B events must have been shed, the A events kept.
	if shedB != 2 {
		t.Fatalf("shed B (step, past deadline) = %d, want 2", shedB)
	}
	if shedA != 0 {
		t.Fatalf("shed A (plateau, residual 0.9) = %d, want 0", shedA)
	}
	if got := sys.TotalCounters().Shed; got != 2 {
		t.Fatalf("Counters.Shed = %d", got)
	}
}

func TestSheddingRejectsWhenNothingSheddable(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	sys.Node(0).MW.MaxQueuedSRT = 1
	ch, _ := sys.Node(0).MW.SRTEC(subjDiag)
	shed := 0
	ch.Announce(ChannelAttrs{}, func(e Exception) {
		if e.Kind == ExcLoadShed {
			shed++
		}
	})
	// First event goes straight to the wire (bus idle), so it is in
	// flight and not sheddable; queue cap 1 with a second publish in the
	// same instant: the queued first one is in-flight → the new one is
	// rejected... Actually the first completes instantly in virtual time
	// only after its frame time, so publish both back to back.
	var err1, err2 error
	sys.K.At(sim.Millisecond, func() {
		now := sys.Node(0).MW.LocalTime()
		err1 = ch.Publish(Event{Subject: subjDiag, Payload: []byte{1},
			Attrs: EventAttrs{Deadline: now + sim.Millisecond}})
		err2 = ch.Publish(Event{Subject: subjDiag, Payload: []byte{2},
			Attrs: EventAttrs{Deadline: now + sim.Millisecond}})
	})
	sys.Run(10 * sim.Millisecond)
	if err1 != nil {
		t.Fatalf("first publish: %v", err1)
	}
	_ = err2 // the second either shed the first (still queued) or was rejected
	if shed != 1 {
		t.Fatalf("shed = %d, want 1 (either victim or rejection)", shed)
	}
}

func TestSheddingDisabledByDefault(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	ch, _ := sys.Node(0).MW.SRTEC(subjDiag)
	ch.Announce(ChannelAttrs{}, nil)
	floodSetup(sys, 20*sim.Millisecond)
	var errs []error
	sys.K.At(sim.Millisecond, func() {
		now := sys.Node(0).MW.LocalTime()
		for i := 0; i < 50; i++ {
			errs = append(errs, ch.Publish(Event{Subject: subjDiag, Payload: []byte{byte(i)},
				Attrs: EventAttrs{Deadline: now + sim.Second}}))
		}
	})
	sys.Run(100 * sim.Millisecond)
	for _, err := range errs {
		if err != nil {
			t.Fatalf("publish failed without a queue bound: %v", err)
		}
	}
	if sys.TotalCounters().Shed != 0 {
		t.Fatal("shedding happened while disabled")
	}
}

// A publish refused because the send queue is full and nothing in it
// can be shed returns errSRTQueueFull, and its LoadShed exception carries
// the refused event. A queued event in a muted controller is sheddable,
// so a publish beside it succeeds.
func TestSheddingErrorIsTyped(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	mw := sys.Node(0).MW
	ch, _ := mw.SRTEC(subjDiag)
	var excs []Exception
	ch.Announce(ChannelAttrs{}, func(e Exception) { excs = append(excs, e) })
	if err := ch.Publish(Event{Subject: subjDiag, Payload: []byte{1}}); err != nil {
		t.Fatalf("publish with shedding disabled: %v", err)
	}
	sys.Run(sys.K.Now() + sim.Millisecond)

	mw.MaxQueuedSRT = 1
	if err := ch.Publish(Event{Subject: subjDiag, Payload: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	sys.K.Step() // arbitration: the frame goes on the wire
	err := ch.Publish(Event{Subject: subjDiag, Payload: []byte{3}})
	if !errors.Is(err, errSRTQueueFull) || errors.Is(err, errPayload) {
		t.Fatalf("publish beside the on-wire frame: %v, want errSRTQueueFull", err)
	}
	if len(excs) != 1 || excs[0].Kind != ExcLoadShed || excs[0].Detail() != "send queue full, no sheddable entry" {
		t.Fatalf("exceptions %v, want one LoadShed for the refusal", excs)
	}
	if ev, ok := excs[0].event(); !ok || string(ev.Payload) != "\x03" {
		t.Fatalf("refusal event % x (ok %v), want 03", ev.Payload, ok)
	}
	sys.Run(sys.K.Now() + sim.Millisecond)

	sys.Node(0).Ctrl.Mute(true)
	for _, b := range []byte{4, 5} {
		if err := ch.Publish(Event{Subject: subjDiag, Payload: []byte{b}}); err != nil {
			t.Fatalf("publish %d beside a muted queued event: %v", b, err)
		}
	}
	if len(excs) != 2 || excs[1].Kind != ExcLoadShed {
		t.Fatalf("exceptions %v, want the queued event shed", excs)
	}
	if ev, _ := excs[1].event(); string(ev.Payload) != "\x04" {
		t.Fatalf("shed event % x, want 04", ev.Payload)
	}
	if errors.Is(errPayload, errStopped) || errors.Is(errSRTQueueFull, errHRTQueueFull) {
		t.Fatal("sentinel confusion")
	}
}

func TestSheddingDeterministic(t *testing.T) {
	// Victim selection must be a total order: identical runs shed the
	// same events (regression test for map-iteration nondeterminism).
	run := func() (uint64, uint64) {
		sys := idealSystem(t, 2, nil)
		sys.Node(0).MW.MaxQueuedSRT = 8
		chs := make([]*SRTEC, 3)
		for i := range chs {
			ch, _ := sys.Node(0).MW.SRTEC(binding.Subject(0x40 + i))
			ch.Announce(ChannelAttrs{Value: value.Plateau{After: 0.5, Grace: sim.Second}}, nil)
			chs[i] = ch
		}
		var loop func(i int)
		loop = func(i int) {
			if sys.K.Now() > 100*sim.Millisecond {
				return
			}
			now := sys.Node(0).MW.LocalTime()
			chs[i].Publish(Event{Subject: binding.Subject(0x40 + i), Payload: make([]byte, 8),
				Attrs: EventAttrs{Deadline: now + 2*sim.Millisecond}})
			sys.K.After(150*sim.Microsecond, func() { loop(i) })
		}
		for i := range chs {
			i := i
			sys.K.At(sim.Time(i)*50*sim.Microsecond, func() { loop(i) })
		}
		sys.Run(500 * sim.Millisecond)
		c := sys.TotalCounters()
		return c.Shed, c.DeliveredSRT + c.PublishedSRT
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 == 0 {
		t.Fatal("scenario did not trigger shedding")
	}
	if s1 != s2 || d1 != d2 {
		t.Fatalf("same-seed shedding diverged: %d/%d vs %d/%d", s1, d1, s2, d2)
	}
}
