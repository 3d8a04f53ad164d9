package core

import (
	"bytes"
	"errors"
	"testing"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/clock"
	"canec/internal/sim"
)

const (
	subjTemp  binding.Subject = 0x1001
	subjDiag  binding.Subject = 0x2001
	subjBulk  binding.Subject = 0x3001
	subjOther binding.Subject = 0x4001
)

// testCalendar builds a one-slot calendar for subjTemp published by node 0,
// with round length 10 ms.
func testCalendar(t *testing.T, k int) *calendar.Calendar {
	t.Helper()
	cfg := calendar.DefaultConfig()
	cfg.OmissionDegree = k
	cal, err := calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: uint64(subjTemp), Publisher: 0, Payload: 8, Periodic: true})
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// idealSystem has zero drift, no sync, so local time == kernel time and
// geometry assertions are exact.
func idealSystem(t *testing.T, nodes int, cal *calendar.Calendar) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{
		Nodes:    nodes,
		Seed:     1,
		Calendar: cal,
		Epoch:    1 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestHRTDeliveryAtExactDeadline(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	pub, err := sys.Node(0).MW.HRTEC(subjTemp)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
		t.Fatal(err)
	}
	subC, err := sys.Node(1).MW.HRTEC(subjTemp)
	if err != nil {
		t.Fatal(err)
	}
	var deliveries []DeliveryInfo
	var payloads [][]byte
	err = subC.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(ev Event, di DeliveryInfo) {
			deliveries = append(deliveries, di)
			// The payload is the mailbox's until the next delivery: keep a copy.
			payloads = append(payloads, bytes.Clone(ev.Payload))
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Publish one event per round, just before each slot's ready instant.
	slot := cal.Slots[0]
	for r := int64(0); r < 20; r++ {
		r := r
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			if err := pub.Publish(Event{Subject: subjTemp, Payload: []byte{byte(r)}}); err != nil {
				t.Errorf("publish round %d: %v", r, err)
			}
		})
	}
	sys.Run(sys.Cfg.Epoch + 20*cal.Round - 1)

	if len(deliveries) != 20 {
		t.Fatalf("deliveries = %d, want 20", len(deliveries))
	}
	for i, di := range deliveries {
		want := sys.Cfg.Epoch + sim.Time(i)*cal.Round + slot.Deadline(cal.Cfg)
		if di.DeliveredAt != want {
			t.Fatalf("delivery %d at %v, want exactly %v (zero app jitter)", i, di.DeliveredAt, want)
		}
		if di.Late {
			t.Fatalf("delivery %d marked late", i)
		}
		if di.ArrivedAt >= di.DeliveredAt {
			t.Fatalf("delivery %d: arrival %v not before deadline %v", i, di.ArrivedAt, di.DeliveredAt)
		}
		if !bytes.Equal(payloads[i], []byte{byte(i)}) {
			t.Fatalf("delivery %d payload %v", i, payloads[i])
		}
	}
	if c := sys.TotalCounters(); c.SlotMissed != 0 || c.LateHRTDeliveries != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestHRTToleratesOmissionDegreeFaults(t *testing.T) {
	cal := testCalendar(t, 2) // dimensioned for k=2
	sys := idealSystem(t, 2, cal)
	sys.Bus.Injector = can.AdversarialK{K: 2, Prio: 0} // exactly k faults per frame
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	got := 0
	var misses int
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(Event, DeliveryInfo) { got++ },
		func(e Exception) {
			if e.Kind == ExcSlotMissed {
				misses++
			}
		})
	for r := int64(0); r < 10; r++ {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
		})
	}
	sys.Run(sys.Cfg.Epoch + 10*cal.Round - 1)
	if got != 10 || misses != 0 {
		t.Fatalf("got %d deliveries, %d misses; want 10, 0 — HRT must mask k faults", got, misses)
	}
	// Every delivery must still be at the exact deadline despite retries.
	if c := sys.TotalCounters(); c.LateHRTDeliveries != 0 {
		t.Fatalf("late deliveries under tolerated faults: %+v", c)
	}
}

func TestHRTFaultsBeyondAssumptionDetected(t *testing.T) {
	cal := testCalendar(t, 1) // dimensioned for k=1 only
	sys := idealSystem(t, 2, cal)
	sys.Bus.Injector = can.FuncInjector(func(f can.Frame, _, attempt int, _ sim.Time, _ *sim.RNG) can.Fault {
		// Fail the first 40 attempts of HRT frames: a long burst far beyond
		// the fault assumption. The frame eventually arrives (CAN keeps
		// retransmitting) but after the delivery deadline.
		if f.ID.Prio() == 0 && attempt <= 40 {
			return can.Fault{Kind: can.FaultError}
		}
		return can.Fault{}
	})
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	late := 0
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(_ Event, di DeliveryInfo) {
			if di.Late {
				late++
			}
		}, nil)
	sys.K.At(sys.Cfg.Epoch-100*sim.Microsecond, func() {
		pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
	})
	sys.Run(sys.Cfg.Epoch + 2*cal.Round)
	if late != 1 {
		t.Fatalf("late deliveries = %d, want 1 (fault burst beyond assumption)", late)
	}
}

func TestHRTPublisherCrashRaisesSlotMissed(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	var misses int
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(Event, DeliveryInfo) {}, func(e Exception) {
			if e.Kind == ExcSlotMissed {
				misses++
				if _, ok := e.event(); ok {
					t.Error("SlotMissed reports an event")
				}
			}
		})
	// Publisher publishes for 3 rounds then "crashes" (mutes).
	for r := int64(0); r < 3; r++ {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
		})
	}
	sys.K.At(sys.Cfg.Epoch+3*cal.Round+cal.Round/2, func() {
		sys.Node(0).Ctrl.Mute(true)
		sys.Node(0).MW.Stop()
	})
	sys.Run(sys.Cfg.Epoch + 8*cal.Round)
	if misses < 4 {
		t.Fatalf("misses = %d, want ≥4 after publisher crash", misses)
	}
}

func TestHRTSporadicUnusedSlotsSilent(t *testing.T) {
	cal := testCalendar(t, 1)
	cal.Slots[0].Periodic = false
	sys := idealSystem(t, 2, cal)
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub.Announce(ChannelAttrs{Payload: 7, Periodic: false}, nil)
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	var misses, got int
	sub.Subscribe(ChannelAttrs{Payload: 7}, SubscribeAttrs{},
		func(Event, DeliveryInfo) { got++ },
		func(e Exception) {
			if e.Kind == ExcSlotMissed {
				misses++
			}
		})
	// Publish only in rounds 2 and 5.
	for _, r := range []int64{2, 5} {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			pub.Publish(Event{Subject: subjTemp, Payload: []byte{9}})
		})
	}
	sys.Run(sys.Cfg.Epoch + 10*cal.Round)
	if got != 2 {
		t.Fatalf("deliveries = %d, want 2", got)
	}
	if misses != 0 {
		t.Fatalf("sporadic channel raised %d SlotMissed", misses)
	}
	if c := sys.TotalCounters(); c.SlotsUnused < 7 {
		t.Fatalf("SlotsUnused = %d, want ≥7", c.SlotsUnused)
	}
}

// SlotMissed follows the calendar slot, not ChannelAttrs.Periodic: a
// channel announced and subscribed as sporadic on a periodic slot still
// reports every round it leaves empty.
func TestHRTSlotMissedFollowsCalendarSlot(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub.Announce(ChannelAttrs{Payload: 7, Periodic: false}, nil)
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	var misses, got int
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: false}, SubscribeAttrs{},
		func(Event, DeliveryInfo) { got++ },
		func(e Exception) {
			if e.Kind == ExcSlotMissed {
				misses++
			}
		})
	for _, r := range []int64{2, 5} {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			pub.Publish(Event{Subject: subjTemp, Payload: []byte{9}})
		})
	}
	sys.Run(sys.Cfg.Epoch + 10*cal.Round)
	if got != 2 || misses != 8 {
		t.Fatalf("deliveries %d, SlotMissed %d: want 2 and 8 (every empty round)", got, misses)
	}
}

func TestHRTRedundancySuppression(t *testing.T) {
	run := func(suppress bool) Counters {
		cal := testCalendar(t, 2)
		sys, err := NewSystem(SystemConfig{
			Nodes: 2, Seed: 1, Calendar: cal, Epoch: 1 * sim.Millisecond,
			NoSuppressRedundancy: !suppress,
		})
		if err != nil {
			t.Fatal(err)
		}
		pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
		pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
		sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
		got := 0
		sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
			func(Event, DeliveryInfo) { got++ }, nil)
		for r := int64(0); r < 10; r++ {
			sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
				pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
			})
		}
		sys.Run(sys.Cfg.Epoch + 11*cal.Round)
		if got != 10 {
			t.Fatalf("suppress=%v: deliveries = %d, want 10 (no duplicate notifications)", suppress, got)
		}
		return sys.TotalCounters()
	}
	withSup := run(true)
	without := run(false)
	if withSup.CopiesSuppressed != 20 { // k=2 copies suppressed per event × 10
		t.Fatalf("CopiesSuppressed = %d, want 20", withSup.CopiesSuppressed)
	}
	if without.RedundantCopiesSent != 20 {
		t.Fatalf("RedundantCopiesSent = %d, want 20", without.RedundantCopiesSent)
	}
	if without.DuplicatesDropped != 20 {
		t.Fatalf("DuplicatesDropped = %d, want 20 (receiver dedup)", without.DuplicatesDropped)
	}
}

func TestHRTRedundancyMasksInconsistentOmission(t *testing.T) {
	// Victim node 1 silently misses the first copy of every frame. With
	// suppression the event is lost (SlotMissed); with always-k redundancy
	// the second copy delivers it.
	build := func(suppress bool) (*System, *int, *int) {
		cal := testCalendar(t, 1)
		sys, err := NewSystem(SystemConfig{
			Nodes: 2, Seed: 1, Calendar: cal, Epoch: 1 * sim.Millisecond,
			NoSuppressRedundancy: !suppress,
		})
		if err != nil {
			t.Fatal(err)
		}
		first := make(map[uint8]bool)
		sys.Bus.Injector = can.FuncInjector(func(f can.Frame, _, _ int, _ sim.Time, _ *sim.RNG) can.Fault {
			if f.ID.Prio() != 0 || len(f.Data) == 0 {
				return can.Fault{}
			}
			seq := f.Data[0] >> 4
			if !first[seq] {
				first[seq] = true
				return can.Fault{Kind: can.FaultOmission, Victims: map[int]bool{1: true}}
			}
			return can.Fault{}
		})
		pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
		pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
		sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
		got, misses := new(int), new(int)
		sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
			func(Event, DeliveryInfo) { *got++ },
			func(e Exception) {
				if e.Kind == ExcSlotMissed {
					*misses++
				}
			})
		for r := int64(0); r < 5; r++ {
			sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
				pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
			})
		}
		sys.Run(sys.Cfg.Epoch + 5*cal.Round - 1)
		return sys, got, misses
	}
	_, gotSup, missSup := build(true)
	if *gotSup != 0 || *missSup != 5 {
		t.Fatalf("suppression: got=%d misses=%d, want 0/5 (inconsistent omission defeats suppression)",
			*gotSup, *missSup)
	}
	_, gotAll, missAll := build(false)
	if *gotAll != 5 || *missAll != 0 {
		t.Fatalf("always-k: got=%d misses=%d, want 5/0", *gotAll, *missAll)
	}
}

func TestHRTQueueOverflow(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	var overflow int
	pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, func(e Exception) {
		if e.Kind == ExcQueueOverflow {
			overflow++
		}
	})
	var lastErr error
	for i := 0; i < 12; i++ {
		lastErr = pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
	}
	if lastErr == nil || overflow == 0 {
		t.Fatalf("no overflow after 12 unpublished events: err=%v exc=%d", lastErr, overflow)
	}
}

func TestHRTAnnounceErrors(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 3, cal)
	// Node 2 has no slot for subjTemp.
	c2, _ := sys.Node(2).MW.HRTEC(subjTemp)
	if err := c2.Announce(ChannelAttrs{Payload: 7}, nil); !errors.Is(err, errNoSlot) {
		t.Fatalf("announce without slot: %v", err)
	}
	// Unknown subject.
	cx, _ := sys.Node(0).MW.HRTEC(subjOther)
	if err := cx.Announce(ChannelAttrs{Payload: 7}, nil); !errors.Is(err, errNoSlot) {
		t.Fatalf("announce unknown subject: %v", err)
	}
	// Payload too big for header.
	c0, _ := sys.Node(0).MW.HRTEC(subjTemp)
	if err := c0.Announce(ChannelAttrs{Payload: 8}, nil); !errors.Is(err, errPayload) {
		t.Fatalf("8-byte HRT payload: %v", err)
	}
	// Publish before announce.
	if err := c0.Publish(Event{Subject: subjTemp}); !errors.Is(err, ErrNotAnnounced) {
		t.Fatalf("publish before announce: %v", err)
	}
}

func TestClassMismatch(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	if _, err := sys.Node(0).MW.HRTEC(subjTemp); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Node(0).MW.SRTEC(subjTemp); !errors.Is(err, ErrClassMismatch) {
		t.Fatalf("class mismatch: %v", err)
	}
}

func TestSRTEDFOrdering(t *testing.T) {
	sys := idealSystem(t, 3, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	pub.Announce(ChannelAttrs{}, nil)
	pub2, _ := sys.Node(1).MW.SRTEC(subjOther)
	pub2.Announce(ChannelAttrs{}, nil)
	var order []byte
	sub, _ := sys.Node(2).MW.SRTEC(subjDiag)
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(ev Event, _ DeliveryInfo) {
		order = append(order, ev.Payload[0])
	}, nil)
	sub2, _ := sys.Node(2).MW.SRTEC(subjOther)
	sub2.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(ev Event, _ DeliveryInfo) {
		order = append(order, ev.Payload[0])
	}, nil)

	// Occupy the bus, then queue three events with inverted deadline order.
	blocker, _ := sys.Node(2).MW.NRTEC(subjBulk)
	blocker.Announce(ChannelAttrs{Prio: 255}, nil)
	sys.K.At(sim.Millisecond, func() {
		blocker.Publish(Event{Subject: subjBulk, Payload: []byte{0, 1, 2, 3, 4, 5, 6}})
		now := sys.Node(0).MW.LocalTime()
		// Far deadline first, near deadline last; EDF must reorder.
		pub.Publish(Event{Subject: subjDiag, Payload: []byte{3},
			Attrs: EventAttrs{Deadline: now + 30*sim.Millisecond}})
		pub.Publish(Event{Subject: subjDiag, Payload: []byte{2},
			Attrs: EventAttrs{Deadline: now + 20*sim.Millisecond}})
		pub2.Publish(Event{Subject: subjOther, Payload: []byte{1},
			Attrs: EventAttrs{Deadline: now + 5*sim.Millisecond}})
	})
	sys.Run(1 * sim.Second)
	if len(order) != 3 {
		t.Fatalf("deliveries = %d", len(order))
	}
	for i, want := range []byte{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("EDF order = %v, want [1 2 3]", order)
		}
	}
}

func TestSRTPromotion(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	pub.Announce(ChannelAttrs{}, nil)
	got := 0
	sub, _ := sys.Node(1).MW.SRTEC(subjDiag)
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(Event, DeliveryInfo) { got++ }, nil)
	// Saturate the bus with a competing same-band stream so the message
	// stays queued long enough to be promoted... simplest: block with a
	// continuous stream of more-urgent messages from another channel.
	comp, _ := sys.Node(1).MW.SRTEC(subjOther)
	comp.Announce(ChannelAttrs{}, nil)
	stop := false
	var flood func()
	flood = func() {
		if stop {
			return
		}
		now := sys.Node(1).MW.LocalTime()
		comp.Publish(Event{Subject: subjOther, Payload: []byte{0},
			Attrs: EventAttrs{Deadline: now + sim.Millisecond}})
		sys.K.After(60*sim.Microsecond, flood)
	}
	sys.K.At(0, flood)
	sys.K.At(sim.Millisecond, func() {
		now := sys.Node(0).MW.LocalTime()
		pub.Publish(Event{Subject: subjDiag, Payload: []byte{7},
			Attrs: EventAttrs{Deadline: now + 20*sim.Millisecond}})
	})
	sys.K.At(40*sim.Millisecond, func() { stop = true })
	sys.Run(100 * sim.Millisecond)
	if got != 1 {
		t.Fatalf("deliveries = %d", got)
	}
	c := sys.TotalCounters()
	if c.PromotionsApplied == 0 {
		t.Fatal("no promotions applied to a long-queued SRT message")
	}
	if sys.Bus.Stats().IDRewrites != c.PromotionsApplied {
		t.Fatalf("controller rewrites %d != promotions %d",
			sys.Bus.Stats().IDRewrites, c.PromotionsApplied)
	}
}

func TestSRTExpiration(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	var expired int
	pub.Announce(ChannelAttrs{}, func(e Exception) {
		if e.Kind == ExcValidityExpired {
			expired++
		}
	})
	got := 0
	sub, _ := sys.Node(1).MW.SRTEC(subjDiag)
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(Event, DeliveryInfo) { got++ }, nil)
	// Block the bus completely with an endless more-urgent stream.
	comp, _ := sys.Node(1).MW.SRTEC(subjOther)
	comp.Announce(ChannelAttrs{}, nil)
	var flood func()
	flood = func() {
		if sys.K.Now() > 50*sim.Millisecond {
			return
		}
		now := sys.Node(1).MW.LocalTime()
		comp.Publish(Event{Subject: subjOther, Payload: []byte{0},
			Attrs: EventAttrs{Deadline: now + 100*sim.Microsecond}})
		sys.K.After(60*sim.Microsecond, flood)
	}
	sys.K.At(0, flood)
	sys.K.At(sim.Millisecond, func() {
		now := sys.Node(0).MW.LocalTime()
		// Far deadline: the event never gets promoted above the urgent
		// flood before its validity runs out.
		pub.Publish(Event{Subject: subjDiag, Payload: []byte{7},
			Attrs: EventAttrs{
				Deadline:   now + 30*sim.Millisecond,
				Expiration: now + 10*sim.Millisecond,
			}})
	})
	sys.Run(100 * sim.Millisecond)
	if expired != 1 {
		t.Fatalf("expirations = %d, want 1", expired)
	}
	if got != 0 {
		t.Fatalf("expired event was delivered")
	}
	if sys.TotalCounters().Expired != 1 {
		t.Fatalf("counters = %+v", sys.TotalCounters())
	}
}

func TestSRTDeadlineMissException(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	var missed int
	pub.Announce(ChannelAttrs{}, func(e Exception) {
		if e.Kind == ExcDeadlineMissed {
			missed++
		}
	})
	got := 0
	sub, _ := sys.Node(1).MW.SRTEC(subjDiag)
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(Event, DeliveryInfo) { got++ }, nil)
	// A blocking NRT bulk transfer occupies the bus; the SRT event's tight
	// deadline passes while it waits (non-preemptable transmission).
	bulk, _ := sys.Node(1).MW.NRTEC(subjBulk)
	bulk.Announce(ChannelAttrs{Prio: 255, Fragmentation: true}, nil)
	sys.K.At(sim.Millisecond, func() {
		bulk.Publish(Event{Subject: subjBulk, Payload: make([]byte, 100)})
	})
	sys.K.At(sim.Millisecond+10*sim.Microsecond, func() {
		now := sys.Node(0).MW.LocalTime()
		pub.Publish(Event{Subject: subjDiag, Payload: []byte{7},
			Attrs: EventAttrs{Deadline: now + 50*sim.Microsecond}})
	})
	sys.Run(100 * sim.Millisecond)
	if missed != 1 {
		t.Fatalf("deadline misses = %d, want 1", missed)
	}
	if got != 1 {
		t.Fatalf("late event must still be delivered (best effort), got %d", got)
	}
}

func TestNRTBulkRoundtrip(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.NRTEC(subjBulk)
	if err := pub.Announce(ChannelAttrs{Prio: 252, Fragmentation: true}, nil); err != nil {
		t.Fatal(err)
	}
	var got []byte
	sub, _ := sys.Node(1).MW.NRTEC(subjBulk)
	sub.Subscribe(ChannelAttrs{Fragmentation: true}, SubscribeAttrs{},
		func(ev Event, _ DeliveryInfo) { got = ev.Payload }, nil)
	img := make([]byte, 4096)
	for i := range img {
		img[i] = byte(i * 31)
	}
	sys.K.At(sim.Millisecond, func() {
		if err := pub.Publish(Event{Subject: subjBulk, Payload: img}); err != nil {
			t.Errorf("publish: %v", err)
		}
	})
	sys.Run(2 * sim.Second)
	if !bytes.Equal(got, img) {
		t.Fatalf("bulk roundtrip failed: got %d bytes", len(got))
	}
}

func TestNRTFragmentLossRaisesFragError(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	n := 0
	sys.Bus.Injector = can.FuncInjector(func(f can.Frame, _, _ int, _ sim.Time, _ *sim.RNG) can.Fault {
		if f.ID.Prio() == 252 {
			n++
			if n == 3 { // silently drop the third fragment at node 1
				return can.Fault{Kind: can.FaultOmission, Victims: map[int]bool{1: true}}
			}
		}
		return can.Fault{}
	})
	pub, _ := sys.Node(0).MW.NRTEC(subjBulk)
	pub.Announce(ChannelAttrs{Prio: 252, Fragmentation: true}, nil)
	var fragErrs, got int
	sub, _ := sys.Node(1).MW.NRTEC(subjBulk)
	sub.Subscribe(ChannelAttrs{Fragmentation: true}, SubscribeAttrs{},
		func(Event, DeliveryInfo) { got++ },
		func(e Exception) {
			if e.Kind == ExcFragError {
				fragErrs++
			}
		})
	sys.K.At(sim.Millisecond, func() {
		pub.Publish(Event{Subject: subjBulk, Payload: make([]byte, 100)})
	})
	sys.Run(1 * sim.Second)
	if fragErrs != 1 || got != 0 {
		t.Fatalf("fragErrs=%d got=%d, want 1/0", fragErrs, got)
	}
}

func TestNRTPrioBandEnforced(t *testing.T) {
	sys := idealSystem(t, 1, nil)
	ch, _ := sys.Node(0).MW.NRTEC(subjBulk)
	if err := ch.Announce(ChannelAttrs{Prio: 100}, nil); !errors.Is(err, errPrioOutOfBand) {
		t.Fatalf("SRT-band priority accepted for NRT: %v", err)
	}
	if err := ch.Announce(ChannelAttrs{Prio: 0}, nil); err != nil {
		t.Fatalf("default priority: %v", err)
	}
	if got := sys.Node(0).MW.channels[mustEtag(t, sys, subjBulk)].attrs.Prio; got != 255 {
		t.Fatalf("default NRT priority = %d, want 255", got)
	}
}

func mustEtag(t *testing.T, sys *System, s binding.Subject) can.Etag {
	t.Helper()
	e, ok := sys.Bindings.Lookup(s)
	if !ok {
		t.Fatal("subject not bound")
	}
	return e
}

func TestSubscribeFilters(t *testing.T) {
	sys := idealSystem(t, 3, nil)
	pub0, _ := sys.Node(0).MW.SRTEC(subjDiag)
	pub0.Announce(ChannelAttrs{}, nil)
	pub1, _ := sys.Node(1).MW.SRTEC(subjDiag)
	pub1.Announce(ChannelAttrs{}, nil)
	var got []byte
	sub, _ := sys.Node(2).MW.SRTEC(subjDiag)
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{
		Publishers: []can.TxNode{0},
		Filter:     func(ev Event) bool { return ev.Payload[0] != 99 },
	}, func(ev Event, _ DeliveryInfo) { got = append(got, ev.Payload[0]) }, nil)
	sys.K.At(sim.Millisecond, func() {
		pub0.Publish(Event{Subject: subjDiag, Payload: []byte{1}})
		pub1.Publish(Event{Subject: subjDiag, Payload: []byte{2}})  // wrong publisher
		pub0.Publish(Event{Subject: subjDiag, Payload: []byte{99}}) // predicate reject
		pub0.Publish(Event{Subject: subjDiag, Payload: []byte{3}})
	})
	sys.Run(1 * sim.Second)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("filtered deliveries = %v, want [1 3]", got)
	}
}

func TestCancelSubscriptionStopsNotifications(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	pub.Announce(ChannelAttrs{}, nil)
	got := 0
	sub, _ := sys.Node(1).MW.SRTEC(subjDiag)
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(Event, DeliveryInfo) { got++ }, nil)
	sys.K.At(sim.Millisecond, func() {
		pub.Publish(Event{Subject: subjDiag, Payload: []byte{1}})
	})
	sys.K.At(10*sim.Millisecond, func() { sub.CancelSubscription() })
	sys.K.At(20*sim.Millisecond, func() {
		pub.Publish(Event{Subject: subjDiag, Payload: []byte{2}})
	})
	sys.Run(1 * sim.Second)
	if got != 1 {
		t.Fatalf("deliveries = %d, want 1 after cancel", got)
	}
}

// hrtSubscriberRun publishes on node 0 in rounds 0-4 of 10 and counts
// node 1's deliveries and SlotMissed. act cancels or subscribes again:
// at the given instant after the epoch, or in the first notification
// when at is 0. A nil act with a non-zero at still steps the kernel then.
// It returns the counts and the kernel steps of the run.
func hrtSubscriberRun(t *testing.T, at sim.Time, act func(sub *HRTEC, subscribe func())) (delivered, missed int, steps uint64) {
	t.Helper()
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	if err := pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
		t.Fatal(err)
	}
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	inHandler := at == 0 && act != nil
	var subscribe func()
	subscribe = func() {
		err := sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
			func(Event, DeliveryInfo) {
				delivered++
				if inHandler {
					inHandler = false
					act(sub, subscribe)
				}
			},
			func(e Exception) {
				if e.Kind == ExcSlotMissed {
					missed++
				}
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	subscribe()
	for r := int64(0); r < 5; r++ {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
		})
	}
	if at != 0 {
		sys.K.At(sys.Cfg.Epoch+at, func() {
			if act != nil {
				act(sub, subscribe)
			}
		})
	}
	sys.Run(sys.Cfg.Epoch + 10*cal.Round - 1)
	return delivered, missed, sys.K.Steps()
}

func cancelAndSubscribe(sub *HRTEC, subscribe func()) {
	sub.CancelSubscription()
	subscribe()
}

// TestHRTResubscribeArmsOneSlotRecord: an HRT subscriber that cancels and
// subscribes again mid-run checks each slot occurrence once, as one that
// never cancelled does. Cancelling stops the slot's delivery and miss
// timers; subscribing again re-arms them from the current round, so no
// second record per slot raises a second SlotMissed or wakes the kernel.
func TestHRTResubscribeArmsOneSlotRecord(t *testing.T) {
	// Both runs step the kernel in round 2; only one cancels.
	at := 2*testCalendar(t, 1).Round + 500*sim.Microsecond
	wantDelivered, wantMissed, wantSteps := hrtSubscriberRun(t, at, nil)
	if wantDelivered != 5 || wantMissed != 5 {
		t.Fatalf("uncancelled subscriber: %d deliveries, %d SlotMissed; want 5, 5", wantDelivered, wantMissed)
	}
	delivered, missed, steps := hrtSubscriberRun(t, at, cancelAndSubscribe)
	if delivered != wantDelivered || missed != wantMissed {
		t.Errorf("after cancel and re-subscribe: %d deliveries, %d SlotMissed; want %d, %d",
			delivered, missed, wantDelivered, wantMissed)
	}
	if steps > wantSteps {
		t.Errorf("after cancel and re-subscribe the run took %d kernel steps, the uncancelled one %d", steps, wantSteps)
	}
}

// TestHRTCancelFromHandler: a notification handler may cancel its own
// subscription, or cancel and subscribe again, while the slot timer that
// delivered the event is still running. The timer must not re-arm itself
// over either. Cancelled, the subscriber raises no SlotMissed afterwards
// and steps the kernel no more than one cancelled from outside the
// handler; subscribed again, it checks each later occurrence once, as one
// that never cancelled does.
func TestHRTCancelFromHandler(t *testing.T) {
	cal := testCalendar(t, 1)
	cancel := func(sub *HRTEC, _ func()) { sub.CancelSubscription() }
	// From outside: just after round 0's delivery.
	delivered, missed, wantSteps := hrtSubscriberRun(t, cal.Slots[0].Deadline(cal.Cfg)+sim.Microsecond, cancel)
	if delivered != 1 || missed != 0 {
		t.Fatalf("cancelled from outside the handler: %d deliveries, %d SlotMissed; want 1, 0", delivered, missed)
	}
	delivered, missed, steps := hrtSubscriberRun(t, 0, cancel)
	if delivered != 1 || missed != 0 {
		t.Errorf("cancelled in the handler: %d deliveries, %d SlotMissed; want 1, 0", delivered, missed)
	}
	if steps > wantSteps {
		t.Errorf("cancelled in the handler the run took %d kernel steps, cancelled from outside %d", steps, wantSteps)
	}

	wantDelivered, wantMissed, wantSteps := hrtSubscriberRun(t, 0, nil)
	delivered, missed, steps = hrtSubscriberRun(t, 0, cancelAndSubscribe)
	if delivered != wantDelivered || missed != wantMissed {
		t.Errorf("cancelled and subscribed again in the handler: %d deliveries, %d SlotMissed; want %d, %d",
			delivered, missed, wantDelivered, wantMissed)
	}
	if steps > wantSteps {
		t.Errorf("cancelled and subscribed again in the handler the run took %d kernel steps, the uncancelled one %d", steps, wantSteps)
	}
}

// TestHRTResubscribeForgetsPastRounds: a subscription made again after a
// cancel starts from the current round. An event stashed before the
// cancel for a deadline that has since passed is dropped, not delivered
// at the next deadline, and the sequence number last seen before the
// cancel does not make a new event that reuses it a duplicate.
func TestHRTResubscribeForgetsPastRounds(t *testing.T) {
	cal := testCalendar(t, 1)
	round, deadline := cal.Round, cal.Slots[0].Deadline(cal.Cfg)
	for _, tc := range []struct {
		name                string
		cancel, resubscribe sim.Time // after the epoch
		rounds              int64
		delivered           []byte // rounds delivered, each at its own deadline
		missed              int    // rounds published while unsubscribed, checked after
	}{
		// Round 2's event has arrived and waits for its deadline.
		{"stash past its deadline", 2*round + deadline - sim.Microsecond, 5*round + 500*sim.Microsecond, 10,
			[]byte{0, 1, 6, 7, 8, 9}, 1},
		// 4-bit sequence numbers: round 16's event reuses round 0's.
		{"sequence number reused", round / 2, 15*round + round/2, 20,
			[]byte{0, 16, 17, 18, 19}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := idealSystem(t, 2, testCalendar(t, 1))
			pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
			if err := pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
				t.Fatal(err)
			}
			sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
			delivered := map[byte]sim.Time{}
			missed := 0
			subscribe := func() {
				err := sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
					func(ev Event, di DeliveryInfo) { delivered[ev.Payload[0]] = di.DeliveredAt },
					func(e Exception) {
						if e.Kind == ExcSlotMissed {
							missed++
						}
					})
				if err != nil {
					t.Fatal(err)
				}
			}
			subscribe()
			for r := int64(0); r < tc.rounds; r++ {
				sys.K.At(sys.Cfg.Epoch+sim.Time(r)*round-100*sim.Microsecond, func() {
					pub.Publish(Event{Subject: subjTemp, Payload: []byte{byte(r)}})
				})
			}
			sys.K.At(sys.Cfg.Epoch+tc.cancel, sub.CancelSubscription)
			sys.K.At(sys.Cfg.Epoch+tc.resubscribe, subscribe)
			sys.Run(sys.Cfg.Epoch + sim.Time(tc.rounds)*round - 1)
			for _, r := range tc.delivered {
				if want := sys.Cfg.Epoch + sim.Time(r)*round + deadline; delivered[r] != want {
					t.Errorf("round %d delivered at %v, want %v", r, delivered[r], want)
				}
			}
			if len(delivered) != len(tc.delivered) || missed != tc.missed {
				t.Errorf("delivered rounds %v and %d SlotMissed, want rounds %v and %d", delivered, missed, tc.delivered, tc.missed)
			}
		})
	}
}

func TestCancelPublicationAbortsQueued(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	pub.Announce(ChannelAttrs{}, nil)
	got := 0
	sub, _ := sys.Node(1).MW.SRTEC(subjDiag)
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(Event, DeliveryInfo) { got++ }, nil)
	// Block the bus, queue an event, cancel before it can go out.
	bulk, _ := sys.Node(1).MW.NRTEC(subjBulk)
	bulk.Announce(ChannelAttrs{Prio: 255, Fragmentation: true}, nil)
	sys.K.At(sim.Millisecond, func() {
		bulk.Publish(Event{Subject: subjBulk, Payload: make([]byte, 200)})
	})
	sys.K.At(sim.Millisecond+5*sim.Microsecond, func() {
		now := sys.Node(0).MW.LocalTime()
		pub.Publish(Event{Subject: subjDiag, Payload: []byte{1},
			Attrs: EventAttrs{Deadline: now + 100*sim.Millisecond}})
		pub.CancelPublication()
	})
	sys.Run(1 * sim.Second)
	if got != 0 {
		t.Fatalf("cancelled publication still delivered %d", got)
	}
}

func TestBandsValidation(t *testing.T) {
	b := DefaultBands()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	b.NRTMin = 200 // overlaps SRT band
	if b.Validate() == nil {
		t.Fatal("overlapping bands accepted")
	}
}

func TestSystemConfigErrors(t *testing.T) {
	if _, err := NewSystem(SystemConfig{Nodes: 0}); err == nil {
		t.Fatal("0 nodes accepted")
	}
	if _, err := NewSystem(SystemConfig{Nodes: 500}); err == nil {
		t.Fatal("500 nodes accepted")
	}
	// Invalid calendar.
	cfg := calendar.DefaultConfig()
	cal := calendar.New(10*sim.Microsecond, cfg)
	cal.Slots = append(cal.Slots, calendar.Slot{Subject: 1, Publisher: 0, Payload: 8})
	if _, err := NewSystem(SystemConfig{Nodes: 2, Calendar: cal}); err == nil {
		t.Fatal("inadmissible calendar accepted")
	}
}

func TestMultiPublisherHRTChannel(t *testing.T) {
	// Two publishers feed the same subject; each needs its own slot (§3.1).
	cfg := calendar.DefaultConfig()
	cal, err := calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: uint64(subjTemp), Publisher: 0, Payload: 8, Periodic: true},
		calendar.Slot{Subject: uint64(subjTemp), Publisher: 1, Payload: 8, Periodic: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	sys := idealSystem(t, 3, cal)
	pub0, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub0.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	pub1, _ := sys.Node(1).MW.HRTEC(subjTemp)
	pub1.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	byPub := map[can.TxNode]int{}
	sub, _ := sys.Node(2).MW.HRTEC(subjTemp)
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(_ Event, di DeliveryInfo) { byPub[di.Publisher]++ }, nil)
	for r := int64(0); r < 5; r++ {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			pub0.Publish(Event{Subject: subjTemp, Payload: []byte{0}})
			pub1.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
		})
	}
	sys.Run(sys.Cfg.Epoch + 5*cal.Round - 1)
	if byPub[0] != 5 || byPub[1] != 5 {
		t.Fatalf("per-publisher deliveries = %v, want 5 each", byPub)
	}
	if sys.TotalCounters().SlotMissed != 0 {
		t.Fatalf("slot misses on multi-publisher channel: %+v", sys.TotalCounters())
	}
}

func TestPriorityBandInvariantOnWire(t *testing.T) {
	// Trace every frame: the band relation P_HRT < P_sync < P_SRT < P_NRT
	// must hold for the traffic classes observed on the bus.
	cal := testCalendar(t, 1)
	sys, err := NewSystem(SystemConfig{
		Nodes: 3, Seed: 3, Calendar: cal, Epoch: 5 * sim.Millisecond,
		Sync:        clockSyncDefault(),
		MaxDriftPPM: 50, MaxInitialOffset: 100 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	bands := sys.Nodes[0].MW.Bands()
	violation := ""
	sys.Bus.Trace = func(e can.TraceEvent) {
		if e.Kind != can.TraceTxStart {
			return
		}
		p := e.Frame.ID.Prio()
		etag := e.Frame.ID.Etag()
		switch {
		case etag == binding.SyncEtag:
			if p != bands.SyncPrio {
				violation = "sync frame with wrong priority"
			}
		case p == bands.HRTPrio, p >= bands.SRT.Min && p <= bands.SRT.Max,
			p >= bands.NRTMin && p <= bands.NRTMax:
		default:
			violation = "frame outside every band"
		}
	}
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{}, func(Event, DeliveryInfo) {}, nil)
	spub, _ := sys.Node(1).MW.SRTEC(subjDiag)
	spub.Announce(ChannelAttrs{}, nil)
	ssub, _ := sys.Node(2).MW.SRTEC(subjDiag)
	ssub.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(Event, DeliveryInfo) {}, nil)
	npub, _ := sys.Node(2).MW.NRTEC(subjBulk)
	npub.Announce(ChannelAttrs{Fragmentation: true}, nil)
	nsub, _ := sys.Node(0).MW.NRTEC(subjBulk)
	nsub.Subscribe(ChannelAttrs{Fragmentation: true}, SubscribeAttrs{}, func(Event, DeliveryInfo) {}, nil)
	for r := int64(0); r < 20; r++ {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
			now := sys.Node(1).MW.LocalTime()
			spub.Publish(Event{Subject: subjDiag, Payload: []byte{2},
				Attrs: EventAttrs{Deadline: now + 5*sim.Millisecond}})
		})
	}
	sys.K.At(sys.Cfg.Epoch, func() {
		npub.Publish(Event{Subject: subjBulk, Payload: make([]byte, 1000)})
	})
	sys.Run(sys.Cfg.Epoch + 20*cal.Round - 1)
	if violation != "" {
		t.Fatal(violation)
	}
	c := sys.TotalCounters()
	if c.DeliveredHRT == 0 || c.DeliveredSRT == 0 || c.DeliveredNRT == 0 {
		t.Fatalf("not all classes flowed: %+v", c)
	}
}

func TestHRTWithDriftingClocksStaysWithinPrecision(t *testing.T) {
	cal := testCalendar(t, 1)
	sys, err := NewSystem(SystemConfig{
		Nodes: 2, Seed: 7, Calendar: cal,
		Sync:        clockSyncDefault(),
		MaxDriftPPM: 100, MaxInitialOffset: 200 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	var deliveredAt []sim.Time
	late := 0
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(_ Event, di DeliveryInfo) {
			deliveredAt = append(deliveredAt, di.DeliveredAt)
			if di.Late {
				late++
			}
		}, nil)
	var publish func(r int64)
	publish = func(r int64) {
		if r >= 100 {
			return
		}
		// Publish keyed to the *publisher's* local clock, just before the
		// slot of round r.
		pubLocal := sys.Cfg.Epoch + sim.Time(r)*cal.Round - 100*sim.Microsecond
		sys.K.At(sys.Clocks[0].WhenLocal(sys.K.Now(), pubLocal), func() {
			pub.Publish(Event{Subject: subjTemp, Payload: []byte{byte(r)}})
			publish(r + 1)
		})
	}
	publish(0)
	sys.Run(sys.Cfg.Epoch + 100*cal.Round - 1)
	if len(deliveredAt) < 95 {
		t.Fatalf("deliveries = %d, want ≥95", len(deliveredAt))
	}
	if late != 0 {
		t.Fatalf("late deliveries = %d", late)
	}
	// Application-visible period jitter is bounded by the sync precision,
	// not by network arbitration jitter.
	worst := sim.Duration(0)
	for i := 1; i < len(deliveredAt); i++ {
		d := deliveredAt[i] - deliveredAt[i-1] - cal.Round
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 30*sim.Microsecond {
		t.Fatalf("period jitter %v exceeds precision-level bound", worst)
	}
	if sys.TotalCounters().SlotMissed != 0 {
		t.Fatalf("slot misses with healthy drifting clocks: %+v", sys.TotalCounters())
	}
}

func clockSyncDefault() clock.SyncConfig {
	return clock.DefaultSyncConfig()
}
