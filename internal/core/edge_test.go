package core

import (
	"errors"
	"testing"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/sim"
)

func TestAnnounceIdempotent(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	if err := pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
		t.Fatal(err)
	}
	// Second announce must not double the slot schedulers.
	if err := pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
		t.Fatal(err)
	}
	got := 0
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(Event, DeliveryInfo) { got++ }, nil)
	sys.K.At(sys.Cfg.Epoch-100*sim.Microsecond, func() {
		pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
	})
	sys.Run(sys.Cfg.Epoch + cal.Round - 1)
	if got != 1 {
		t.Fatalf("deliveries = %d (double announce duplicated the scheduler?)", got)
	}
}

func TestSubscribeIdempotentAndHandlerUpdate(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	pub.Announce(ChannelAttrs{}, nil)
	sub, _ := sys.Node(1).MW.SRTEC(subjDiag)
	firstCalls, secondCalls := 0, 0
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(Event, DeliveryInfo) { firstCalls++ }, nil)
	// Re-subscribing replaces the handler rather than stacking.
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(Event, DeliveryInfo) { secondCalls++ }, nil)
	sys.K.At(sim.Millisecond, func() {
		pub.Publish(Event{Subject: subjDiag, Payload: []byte{1}})
	})
	sys.Run(100 * sim.Millisecond)
	if firstCalls != 0 || secondCalls != 1 {
		t.Fatalf("calls = %d/%d, want 0/1", firstCalls, secondCalls)
	}
}

func TestStopHaltsEverything(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	got := 0
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(Event, DeliveryInfo) { got++ }, nil)
	for r := int64(0); r < 10; r++ {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
		})
	}
	sys.K.At(sys.Cfg.Epoch+3*cal.Round, func() {
		for _, n := range sys.Nodes {
			n.MW.Stop()
		}
	})
	sys.Run(sys.Cfg.Epoch + 10*cal.Round)
	if got > 4 {
		t.Fatalf("deliveries after Stop: %d", got)
	}
	// Publishing after stop errors.
	if err := pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}}); !errors.Is(err, errStopped) {
		t.Fatalf("publish after stop: %v", err)
	}
	if _, err := sys.Node(0).MW.SRTEC(0xF0); !errors.Is(err, errStopped) {
		t.Fatalf("new channel after stop: %v", err)
	}
}

func TestSRTDefaultDeadlineIsHorizon(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	pub.Announce(ChannelAttrs{}, nil)
	var gotPrio can.Prio
	sys.Bus.Trace = func(e can.TraceEvent) {
		if e.Kind == can.TraceTxStart {
			gotPrio = e.Frame.ID.Prio()
		}
	}
	sys.K.At(sim.Millisecond, func() {
		pub.Publish(Event{Subject: subjDiag, Payload: []byte{1}}) // no deadline
	})
	sys.Run(100 * sim.Millisecond)
	if gotPrio != sys.Node(0).MW.Bands().SRT.Max {
		t.Fatalf("deadline-less event got priority %d, want band max %d",
			gotPrio, sys.Node(0).MW.Bands().SRT.Max)
	}
}

func TestSRTPayloadCap(t *testing.T) {
	sys := idealSystem(t, 1, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	if err := pub.Announce(ChannelAttrs{Payload: 4}, nil); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(Event{Subject: subjDiag, Payload: make([]byte, 5)}); !errors.Is(err, errPayload) {
		t.Fatalf("oversized payload: %v", err)
	}
	if err := pub.Publish(Event{Subject: subjDiag, Payload: make([]byte, 4)}); err != nil {
		t.Fatalf("fitting payload rejected: %v", err)
	}
	// Announce with invalid sizes.
	bad, _ := sys.Node(0).MW.SRTEC(0xE0)
	if err := bad.Announce(ChannelAttrs{Payload: 9}, nil); !errors.Is(err, errPayload) {
		t.Fatalf("payload 9 accepted: %v", err)
	}
}

func TestNRTUnfragmentedCapAndSingleFramePath(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.NRTEC(subjBulk)
	if err := pub.Announce(ChannelAttrs{Prio: 255}, nil); err != nil {
		t.Fatal(err)
	}
	// Without fragmentation the cap is one frame of transport payload.
	if err := pub.Publish(Event{Subject: subjBulk, Payload: make([]byte, 9)}); !errors.Is(err, errPayload) {
		t.Fatalf("9-byte unfragmented payload: %v", err)
	}
	var got []byte
	sub, _ := sys.Node(1).MW.NRTEC(subjBulk)
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{},
		func(ev Event, _ DeliveryInfo) { got = ev.Payload }, nil)
	sys.K.At(sim.Millisecond, func() {
		if err := pub.Publish(Event{Subject: subjBulk, Payload: []byte{1, 2, 3, 4, 5, 6, 7}}); err != nil {
			t.Errorf("publish: %v", err)
		}
	})
	sys.Run(100 * sim.Millisecond)
	if len(got) != 7 {
		t.Fatalf("unfragmented delivery = %v", got)
	}
}

func TestNRTQueueChains(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.NRTEC(subjBulk)
	pub.Announce(ChannelAttrs{Prio: 255, Fragmentation: true}, nil)
	got := 0
	sub, _ := sys.Node(1).MW.NRTEC(subjBulk)
	sub.Subscribe(ChannelAttrs{Fragmentation: true}, SubscribeAttrs{},
		func(Event, DeliveryInfo) { got++ }, nil)
	sys.K.At(sim.Millisecond, func() {
		for i := 0; i < 3; i++ {
			pub.Publish(Event{Subject: subjBulk, Payload: make([]byte, 100)})
		}
		if pub.QueuedChains() != 3 {
			t.Errorf("QueuedChains = %d", pub.QueuedChains())
		}
	})
	sys.Run(1 * sim.Second)
	if got != 3 {
		t.Fatalf("messages delivered = %d", got)
	}
	if pub.QueuedChains() != 0 {
		t.Fatalf("chains left = %d", pub.QueuedChains())
	}
}

func TestExceptionCarriesContext(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	var exc Exception
	pub.Announce(ChannelAttrs{}, func(e Exception) { exc = e })
	// Block the bus so the event expires in queue.
	comp, _ := sys.Node(1).MW.SRTEC(subjOther)
	comp.Announce(ChannelAttrs{}, nil)
	var flood func()
	flood = func() {
		if sys.K.Now() > 30*sim.Millisecond {
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
		pub.Publish(Event{Subject: subjDiag, Payload: []byte{0xEE},
			Attrs: EventAttrs{Deadline: now + 50*sim.Millisecond, Expiration: now + 5*sim.Millisecond}})
	})
	sys.Run(100 * sim.Millisecond)
	if exc.Kind != ExcValidityExpired {
		t.Fatalf("exception = %+v", exc)
	}
	if ev, ok := exc.event(); exc.Subject != subjDiag || !ok || ev.Payload[0] != 0xEE {
		t.Fatalf("exception lost context: %+v", exc)
	}
	if exc.At == 0 || exc.Detail() == "" {
		t.Fatalf("exception missing metadata: %+v", exc)
	}
}

func TestCountersAccuracy(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(Event, DeliveryInfo) {}, nil)
	const rounds = 7
	for r := int64(0); r < rounds; r++ {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
		})
	}
	sys.Run(sys.Cfg.Epoch + rounds*cal.Round - 1)
	c := sys.TotalCounters()
	if c.PublishedHRT != rounds || c.DeliveredHRT != rounds || c.SlotsFired != rounds {
		t.Fatalf("counters = %+v", c)
	}
	if c.CopiesSuppressed != rounds { // k=1: one suppressed copy per event
		t.Fatalf("CopiesSuppressed = %d", c.CopiesSuppressed)
	}
}

func TestEventTimestampSetOnPublish(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	pub.Announce(ChannelAttrs{}, nil)
	cal := testCalendar(t, 1)
	_ = cal
	published := false
	sys.K.At(5*sim.Millisecond, func() {
		ev := Event{Subject: subjDiag, Payload: []byte{1}}
		if err := pub.Publish(ev); err != nil {
			t.Errorf("publish: %v", err)
		}
		published = true
	})
	sys.Run(10 * sim.Millisecond)
	if !published {
		t.Fatal("publish never ran")
	}
}

func TestSharedBindingsGiveConsistentEtags(t *testing.T) {
	sys := idealSystem(t, 3, nil)
	a, _ := sys.Node(0).MW.SRTEC(binding.Subject(0xCAFE))
	a.Announce(ChannelAttrs{}, nil)
	b, _ := sys.Node(1).MW.SRTEC(binding.Subject(0xCAFE))
	got := 0
	b.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(Event, DeliveryInfo) { got++ }, nil)
	sys.K.At(sim.Millisecond, func() {
		a.Publish(Event{Subject: 0xCAFE, Payload: []byte{1}})
	})
	sys.Run(10 * sim.Millisecond)
	if got != 1 {
		t.Fatal("shared binding table did not route between nodes")
	}
	eA, _ := sys.Bindings.Lookup(0xCAFE)
	if eA == 0 {
		t.Fatal("binding not recorded in the shared table")
	}
}

func TestCalendarlessHRTRejected(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	ch, _ := sys.Node(0).MW.HRTEC(subjTemp)
	if err := ch.Announce(ChannelAttrs{Payload: 7}, nil); !errors.Is(err, errNoSlot) {
		t.Fatalf("announce without calendar: %v", err)
	}
	if err := ch.Subscribe(ChannelAttrs{Payload: 7}, SubscribeAttrs{}, nil, nil); !errors.Is(err, errNoSlot) {
		t.Fatalf("subscribe without calendar: %v", err)
	}
}

func TestPublisherFilterOnHRT(t *testing.T) {
	// Two publishers on the same HRT subject; the subscriber filters to
	// one of them.
	cfg := calendar.DefaultConfig()
	cal, err := calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: uint64(subjTemp), Publisher: 0, Payload: 8, Periodic: false},
		calendar.Slot{Subject: uint64(subjTemp), Publisher: 1, Payload: 8, Periodic: false},
	)
	if err != nil {
		t.Fatal(err)
	}
	sys := idealSystem(t, 3, cal)
	pub0, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub0.Announce(ChannelAttrs{Payload: 7}, nil)
	pub1, _ := sys.Node(1).MW.HRTEC(subjTemp)
	pub1.Announce(ChannelAttrs{Payload: 7}, nil)
	var got []can.TxNode
	sub, _ := sys.Node(2).MW.HRTEC(subjTemp)
	sub.Subscribe(ChannelAttrs{Payload: 7}, SubscribeAttrs{Publishers: []can.TxNode{1}},
		func(_ Event, di DeliveryInfo) { got = append(got, di.Publisher) }, nil)
	sys.K.At(sys.Cfg.Epoch-100*sim.Microsecond, func() {
		pub0.Publish(Event{Subject: subjTemp, Payload: []byte{0}})
		pub1.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
	})
	sys.Run(sys.Cfg.Epoch + cal.Round - 1)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("filtered HRT deliveries = %v", got)
	}
}

func TestChannelsIntrospection(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	h, _ := sys.Node(0).MW.HRTEC(subjTemp)
	h.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	s, _ := sys.Node(0).MW.SRTEC(subjDiag)
	s.Announce(ChannelAttrs{}, nil)
	n, _ := sys.Node(0).MW.NRTEC(subjBulk)
	n.Subscribe(ChannelAttrs{Fragmentation: true}, SubscribeAttrs{}, nil, nil)

	infos := sys.Node(0).MW.Channels()
	if len(infos) != 3 {
		t.Fatalf("channels = %d", len(infos))
	}
	byClass := map[Class]ChannelInfo{}
	for i := 1; i < len(infos); i++ {
		if infos[i].Etag < infos[i-1].Etag {
			t.Fatal("channels not sorted by etag")
		}
	}
	for _, in := range infos {
		byClass[in.Class] = in
	}
	if !byClass[HRT].Announced || byClass[HRT].Subject != subjTemp || !byClass[HRT].Attrs.Periodic {
		t.Fatalf("HRT info = %+v", byClass[HRT])
	}
	if !byClass[SRT].Announced || byClass[SRT].Subscribed {
		t.Fatalf("SRT info = %+v", byClass[SRT])
	}
	if byClass[NRT].Announced || !byClass[NRT].Subscribed {
		t.Fatalf("NRT info = %+v", byClass[NRT])
	}
}
