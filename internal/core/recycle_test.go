package core

import (
	"bytes"
	"errors"
	"testing"

	"canec/internal/can"
	"canec/internal/frag"
	"canec/internal/sim"
)

// bulk returns an n-byte payload starting with b.
func bulk(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b + byte(i)
	}
	return p
}

// freeSRT lists the channel's free SRT entry records.
func freeSRT(ch *channelState) []*srtEntry {
	var free []*srtEntry
	for e := ch.srtFree; e != nil; e = e.next {
		free = append(free, e)
	}
	return free
}

// nrtPair announces a fragmenting NRT channel on node 0 and subscribes
// node 1, collecting delivered payloads and FragErrors.
func nrtPair(t *testing.T, sys *System) (pub *NRTEC, attrs ChannelAttrs, got *[][]byte, fragErrs *int) {
	t.Helper()
	attrs = ChannelAttrs{Prio: 252, Fragmentation: true}
	pub, _ = sys.Node(0).MW.NRTEC(subjBulk)
	if err := pub.Announce(attrs, nil); err != nil {
		t.Fatal(err)
	}
	got, fragErrs = new([][]byte), new(int)
	sub, _ := sys.Node(1).MW.NRTEC(subjBulk)
	sub.Subscribe(attrs, SubscribeAttrs{},
		func(ev Event, _ DeliveryInfo) { *got = append(*got, ev.Payload) },
		func(e Exception) {
			if e.Kind == ExcFragError {
				*fragErrs++
			}
		})
	return pub, attrs, got, fragErrs
}

// Cancelling an NRT publication while the controller holds the head
// fragment aborts that fragment; the channel can be re-announced and
// send a new message at once.
func TestNRTCancelPublicationWithFragmentQueued(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, attrs, got, fragErrs := nrtPair(t, sys)
	ctrl := sys.Node(0).Ctrl
	ctrl.Mute(true) // the head fragment stays queued in the controller
	if err := pub.Publish(Event{Subject: subjBulk, Payload: bulk(0xa0, 64)}); err != nil {
		t.Fatal(err)
	}
	if ctrl.Pending() != 1 || pub.QueuedChains() != 1 {
		t.Fatalf("pending %d, queued %d after publish", ctrl.Pending(), pub.QueuedChains())
	}
	pub.CancelPublication()
	if ctrl.Pending() != 0 || pub.QueuedChains() != 0 {
		t.Fatalf("pending %d, queued %d after cancel: the held fragment was not aborted",
			ctrl.Pending(), pub.QueuedChains())
	}
	ctrl.Mute(false)
	sys.Run(10 * sim.Millisecond)
	if len(*got) != 0 || sys.Bus.Stats().FramesOK != 0 {
		t.Fatalf("cancelled message sent: %d deliveries, %d frames", len(*got), sys.Bus.Stats().FramesOK)
	}

	if err := pub.Announce(attrs, nil); err != nil {
		t.Fatal(err)
	}
	want := bulk(0xb0, 64)
	if err := pub.Publish(Event{Subject: subjBulk, Payload: want}); err != nil {
		t.Fatal(err)
	}
	sys.Run(sys.K.Now() + 100*sim.Millisecond)
	if len(*got) != 1 || !bytes.Equal((*got)[0], want) || *fragErrs != 0 {
		t.Fatalf("after re-announce: %d deliveries, %d FragErrors", len(*got), *fragErrs)
	}
	if c := sys.Node(0).MW.Counters(); c.TxFailures != 0 {
		t.Fatalf("TxFailures %d, want 0", c.TxFailures)
	}
}

// A fragment on the wire cannot be aborted. Its completion belongs to
// the cancelled message: it must neither advance nor drop the message
// published after the channel was re-announced, whether it succeeds or
// fails.
func TestNRTCancelPublicationWithFragmentOnWire(t *testing.T) {
	for _, fail := range []bool{false, true} {
		name := map[bool]string{false: "completes", true: "fails"}[fail]
		t.Run(name, func(t *testing.T) {
			sys, err := NewSystem(SystemConfig{Nodes: 2, Seed: 1, ConfineFaults: true})
			if err != nil {
				t.Fatal(err)
			}
			// The cancelled message is a single frame when it completes
			// (the receiver gets it whole) and a 64-byte chain whose first
			// fragment errors until its sender goes bus-off when it fails.
			first := bulk(0xa0, 5)
			if fail {
				first = bulk(0xa0, 64)
				sys.Bus.Injector = can.FuncInjector(func(f can.Frame, _, _ int, _ sim.Time, _ *sim.RNG) can.Fault {
					if f.Data[0] == 0x10 && f.Data[1] == 64 {
						return can.Fault{Kind: can.FaultError}
					}
					return can.Fault{}
				})
			}
			pub, attrs, got, fragErrs := nrtPair(t, sys)
			ctrl := sys.Node(0).Ctrl
			if err := pub.Publish(Event{Subject: subjBulk, Payload: first}); err != nil {
				t.Fatal(err)
			}
			sys.K.Step() // arbitration: the first fragment goes on the wire
			pub.CancelPublication()
			if ctrl.Pending() != 1 || pub.QueuedChains() != 0 {
				t.Fatalf("pending %d, queued %d after cancel", ctrl.Pending(), pub.QueuedChains())
			}
			if err := pub.Announce(attrs, nil); err != nil {
				t.Fatal(err)
			}
			want := bulk(0xb0, 65)
			if err := pub.Publish(Event{Subject: subjBulk, Payload: want}); err != nil {
				t.Fatal(err)
			}
			if ctrl.Pending() != 1 {
				t.Fatalf("pending %d: the new message started beside the orphan", ctrl.Pending())
			}
			sys.Run(sys.K.Now() + 200*sim.Millisecond)

			wantGot := [][]byte{first, want}
			if fail {
				wantGot = wantGot[1:]
				if sys.Bus.Stats().BusOffEvents != 1 {
					t.Fatalf("BusOffEvents %d, want 1", sys.Bus.Stats().BusOffEvents)
				}
			}
			if len(*got) != len(wantGot) || *fragErrs != 0 {
				t.Fatalf("%d deliveries (want %d), %d FragErrors", len(*got), len(wantGot), *fragErrs)
			}
			for i := range wantGot {
				if !bytes.Equal((*got)[i], wantGot[i]) {
					t.Fatalf("delivery %d: % x, want % x", i, (*got)[i], wantGot[i])
				}
			}
			if c := sys.Node(0).MW.Counters(); c.TxFailures != 0 || c.PublishedNRT != 2 {
				t.Fatalf("TxFailures %d (want 0), PublishedNRT %d (want 2)", c.TxFailures, c.PublishedNRT)
			}
			if pub.QueuedChains() != 0 || ctrl.Pending() != 0 {
				t.Fatalf("queued %d, pending %d at the end", pub.QueuedChains(), ctrl.Pending())
			}
		})
	}
}

// An exception holds its event by value: a handler that keeps the
// Exception sees the event it was raised for after the entry it came from
// has been reused.
func TestSRTExceptionEventsOutliveRecycling(t *testing.T) {
	cases := []struct {
		kind    ExceptionKind
		provoke func(sys *System, pub *SRTEC)
	}{
		{ExcDeadlineMissed, func(sys *System, pub *SRTEC) {
			ctrl := sys.Node(0).Ctrl
			ctrl.Mute(true)
			now := sys.Node(0).MW.LocalTime()
			pub.Publish(Event{Subject: subjDiag, Payload: []byte{0xa0},
				Attrs: EventAttrs{Deadline: now + 100*sim.Microsecond}})
			sys.Run(sys.K.Now() + sim.Millisecond)
			ctrl.Mute(false)
			sys.Run(sys.K.Now() + sim.Millisecond) // sent late
		}},
		{ExcValidityExpired, func(sys *System, pub *SRTEC) {
			ctrl := sys.Node(0).Ctrl
			ctrl.Mute(true)
			now := sys.Node(0).MW.LocalTime()
			pub.Publish(Event{Subject: subjDiag, Payload: []byte{0xa0},
				Attrs: EventAttrs{Deadline: now + 50*sim.Millisecond, Expiration: now + sim.Millisecond}})
			sys.Run(sys.K.Now() + 2*sim.Millisecond)
			ctrl.Mute(false)
		}},
		{ExcLoadShed, func(sys *System, pub *SRTEC) {
			mw := sys.Node(0).MW
			mw.MaxQueuedSRT = 1
			mw.node.Ctrl.Mute(true)
			now := mw.LocalTime()
			pub.Publish(Event{Subject: subjDiag, Payload: []byte{0xa0},
				Attrs: EventAttrs{Deadline: now + 100*sim.Microsecond}})
			sys.Run(sys.K.Now() + sim.Millisecond) // past its deadline: value 0
			now = mw.LocalTime()
			// Sheds the first event and takes its record at once.
			pub.Publish(Event{Subject: subjDiag, Payload: []byte{0xa1},
				Attrs: EventAttrs{Deadline: now + 50*sim.Millisecond}})
			mw.MaxQueuedSRT = 0
			mw.node.Ctrl.Mute(false)
		}},
		{ExcTxFailure, func(sys *System, pub *SRTEC) {
			guard := &muteAll{on: true}
			sys.Bus.Guardian = guard
			pub.Publish(Event{Subject: subjDiag, Payload: []byte{0xa0}})
			sys.Run(sys.K.Now() + sim.Millisecond)
			guard.on = false
		}},
	}
	for _, c := range cases {
		t.Run(c.kind.String(), func(t *testing.T) {
			sys := idealSystem(t, 2, nil)
			pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
			var kept []Exception
			err := pub.Announce(ChannelAttrs{}, func(e Exception) {
				if e.Kind != c.kind {
					t.Errorf("unexpected %v exception", e.Kind)
				}
				kept = append(kept, e)
			})
			if err != nil {
				t.Fatal(err)
			}
			c.provoke(sys, pub)
			if len(kept) != 1 {
				t.Fatalf("%d %v exceptions, want 1", len(kept), c.kind)
			}
			// Later publishes go through the entries the exception's
			// came from.
			for i := byte(0); i < 4; i++ {
				now := sys.Node(0).MW.LocalTime()
				pub.Publish(Event{Subject: subjDiag, Payload: []byte{0xa1 + i},
					Attrs: EventAttrs{Deadline: now + 10*sim.Millisecond}})
			}
			sys.Run(sys.K.Now() + 10*sim.Millisecond)
			free := freeSRT(pub.ch)
			if len(pub.ch.srtActive) != 0 || len(free) == 0 {
				t.Fatalf("active %d, free %d: the entries did not come back",
					len(pub.ch.srtActive), len(free))
			}
			if len(kept) != 1 {
				t.Fatalf("%d exceptions after the follow-up publishes, want 1", len(kept))
			}
			ev, ok := kept[0].event()
			if !ok || ev.Subject != subjDiag || len(ev.Payload) != 1 || ev.Payload[0] != 0xa0 || ev.Attrs.Deadline == 0 {
				t.Fatalf("kept %v event changed after its entry was reused: %+v", c.kind, ev)
			}
			for _, e := range free {
				if &ev.Payload[0] == &e.data[0] {
					t.Fatal("the exception's payload is the entry's storage")
				}
			}
		})
	}
}

// CancelPublication while an SRT frame is on the wire finishes its entry
// but keeps the record out of the free list until the frame's Done has
// run, so an event published right after gets a record of its own, which
// the old completion leaves alone.
func TestSRTCancelWithFrameOnWireKeepsNewEntry(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	if err := pub.Announce(ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	var got []byte
	sub, _ := sys.Node(1).MW.SRTEC(subjDiag)
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{},
		func(ev Event, _ DeliveryInfo) { got = append(got, ev.Payload[0]) }, nil)
	ch := pub.ch
	deadline := func() EventAttrs {
		return EventAttrs{Deadline: sys.Node(0).MW.LocalTime() + 10*sim.Millisecond}
	}

	if err := pub.Publish(Event{Subject: subjDiag, Payload: []byte{0xa0}, Attrs: deadline()}); err != nil {
		t.Fatal(err)
	}
	old := ch.srtActive[0]
	sys.K.Step() // arbitration: the frame goes on the wire
	pub.CancelPublication()
	if len(ch.srtActive) != 0 || ch.srtFree != nil {
		t.Fatalf("active %d, free %d after cancel: the on-wire entry went back early",
			len(ch.srtActive), len(freeSRT(ch)))
	}
	if err := pub.Announce(ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(Event{Subject: subjDiag, Payload: []byte{0xb0}, Attrs: deadline()}); err != nil {
		t.Fatal(err)
	}
	fresh := ch.srtActive[0]
	if fresh == old {
		t.Fatal("the new event took the record whose frame is still on the wire")
	}
	for len(got) == 0 {
		if !sys.K.Step() {
			t.Fatal("the on-wire frame never completed")
		}
	}
	if free := freeSRT(ch); len(free) != 1 || free[0] != old {
		t.Fatal("the old record did not come back when its frame completed")
	}
	if len(ch.srtActive) != 1 || ch.srtActive[0] != fresh || fresh.idx != 0 ||
		fresh.ev.Payload[0] != 0xb0 || !fresh.promo.Armed() {
		t.Fatal("the old completion disturbed the new entry")
	}
	sys.Run(sys.K.Now() + 10*sim.Millisecond)
	if string(got) != "\xa0\xb0" {
		t.Fatalf("delivered % x, want a0 b0", got)
	}
}

// A steady-state SRT publish→deliver on a recycled entry with S
// subscribers allocates nothing: the request record is recycled, and
// each delivery lands in its channel's mailbox.
func TestSRTPublishAllocsPinned(t *testing.T) {
	const subs = 3
	sys := idealSystem(t, subs+1, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	if err := pub.Announce(ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 1; i <= subs; i++ {
		s, _ := sys.Node(i).MW.SRTEC(subjDiag)
		s.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(Event, DeliveryInfo) { delivered++ }, nil)
	}
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	rounds := 0
	round := func() {
		now := sys.Node(0).MW.LocalTime()
		err := pub.Publish(Event{Subject: subjDiag, Payload: payload,
			Attrs: EventAttrs{Deadline: now + 5*sim.Millisecond, Expiration: now + 20*sim.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(sys.K.Now() + sim.Millisecond)
		rounds++
	}
	for i := 0; i < 5; i++ {
		round()
	}
	rec := freeSRT(pub.ch)
	if per := testing.AllocsPerRun(100, round); per != 0 {
		t.Fatalf("SRT publish with %d subscribers: %.2f allocs, want 0", subs, per)
	}
	if delivered != subs*rounds {
		t.Fatalf("delivered %d, want %d", delivered, subs*rounds)
	}
	if free := freeSRT(pub.ch); len(free) != 1 || free[0] != rec[0] {
		t.Fatal("publishes made new entries instead of reusing the free one")
	}
}

// Raising an exception allocates nothing: the Exception holds its event
// by value, and a refused publish returns a fixed error. Each steady-state
// round raises the named exceptions at a publisher whose handler is
// installed.
func TestSRTExceptionAllocsPinned(t *testing.T) {
	cases := []struct {
		name  string
		want  map[ExceptionKind]int // exceptions per round
		setup func(t *testing.T, sys *System, exc ExceptionHandler) (round func())
	}{
		{"DeadlineMissed+ValidityExpired", map[ExceptionKind]int{ExcDeadlineMissed: 1, ExcValidityExpired: 1},
			func(t *testing.T, sys *System, exc ExceptionHandler) func() {
				pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
				if err := pub.Announce(ChannelAttrs{}, exc); err != nil {
					t.Fatal(err)
				}
				ctrl := sys.Node(0).Ctrl
				late, stale := []byte{0xa0}, []byte{0xa1}
				return func() {
					ctrl.Mute(true)
					now := sys.Node(0).MW.LocalTime()
					if err := pub.Publish(Event{Subject: subjDiag, Payload: late,
						Attrs: EventAttrs{Deadline: now + 100*sim.Microsecond}}); err != nil {
						t.Fatal(err)
					}
					if err := pub.Publish(Event{Subject: subjDiag, Payload: stale,
						Attrs: EventAttrs{Deadline: now + 50*sim.Millisecond, Expiration: now + 500*sim.Microsecond}}); err != nil {
						t.Fatal(err)
					}
					sys.Run(sys.K.Now() + sim.Millisecond) // stale expires
					ctrl.Mute(false)
					sys.Run(sys.K.Now() + sim.Millisecond) // late is sent late
				}
			}},
		{"LoadShed refused", map[ExceptionKind]int{ExcLoadShed: 1},
			func(t *testing.T, sys *System, exc ExceptionHandler) func() {
				mw := sys.Node(0).MW
				pub, _ := mw.SRTEC(subjDiag)
				if err := pub.Announce(ChannelAttrs{}, exc); err != nil {
					t.Fatal(err)
				}
				mw.MaxQueuedSRT = 1
				payload := []byte{0xa0}
				return func() {
					now := mw.LocalTime()
					ev := Event{Subject: subjDiag, Payload: payload, Attrs: EventAttrs{Deadline: now + 5*sim.Millisecond}}
					if err := pub.Publish(ev); err != nil {
						t.Fatal(err)
					}
					sys.K.Step() // arbitration: the frame goes on the wire
					if err := pub.Publish(ev); !errors.Is(err, errSRTQueueFull) {
						t.Fatalf("publish beside an on-wire frame: %v", err)
					}
					sys.Run(sys.K.Now() + sim.Millisecond)
				}
			}},
		{"QueueOverflow", map[ExceptionKind]int{ExcQueueOverflow: 1},
			func(t *testing.T, sys *System, exc ExceptionHandler) func() {
				pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
				if err := pub.Announce(ChannelAttrs{Payload: 7, Periodic: true, QueueCap: 1}, exc); err != nil {
					t.Fatal(err)
				}
				payload := []byte{1, 2, 3}
				r := int64(0)
				return func() {
					sys.Run(roundStart(sys, r) - 100*sim.Microsecond)
					if err := pub.Publish(Event{Subject: subjTemp, Payload: payload}); err != nil {
						t.Fatal(err)
					}
					if err := pub.Publish(Event{Subject: subjTemp, Payload: payload}); !errors.Is(err, errHRTQueueFull) {
						t.Fatalf("publish into a full queue: %v", err)
					}
					r++
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := idealSystem(t, 2, testCalendar(t, 1))
			got := map[ExceptionKind]int{}
			for k := range c.want {
				got[k] = 0 // no map growth inside the measured rounds
			}
			round := c.setup(t, sys, func(e Exception) { got[e.Kind]++ })
			for i := 0; i < 5; i++ {
				round()
			}
			const runs = 100
			if per := testing.AllocsPerRun(runs, round); per != 0 {
				t.Fatalf("%.2f allocs per round, want 0", per)
			}
			for k, n := range c.want {
				if want := n * (5 + runs + 1); got[k] != want {
					t.Fatalf("%d %v exceptions, want %d (all: %v)", got[k], k, want, got)
				}
			}
			if len(got) != len(c.want) {
				t.Fatalf("exceptions %v, want only %v", got, c.want)
			}
		})
	}
}

// An N-fragment NRT message costs only the subscriber's reassembly
// buffer: the publisher copies into the buffer the previous message left
// in the queue's tail slot, the N controller requests are recycled, and
// there is no per-frame slice or closure.
func TestNRTChainAllocsPinned(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _, got, _ := nrtPair(t, sys)
	msg := bulk(0x10, 64)
	n := frag.FrameCount(len(msg))
	send := func() {
		if err := pub.Publish(Event{Subject: subjBulk, Payload: msg}); err != nil {
			t.Fatal(err)
		}
		sys.Run(sys.K.Now() + 5*sim.Millisecond)
	}
	for i := 0; i < 3; i++ {
		send()
	}
	const runs = 50
	if per := testing.AllocsPerRun(runs, send); per > 1 {
		t.Fatalf("%d-fragment message: %.2f allocs, want <= 1", n, per)
	}
	if len(*got) != 3+runs+1 || !bytes.Equal((*got)[len(*got)-1], msg) {
		t.Fatalf("%d deliveries, want %d", len(*got), 3+runs+1)
	}
}

// Detail renders the typed values an exception carries in the words the
// eager strings used.
func TestExceptionDetail(t *testing.T) {
	for _, c := range []struct {
		e    Exception
		want string
	}{
		{Exception{Kind: ExcDeadlineMissed, late: 1500 * sim.Microsecond}, "transmitted 0.001500s after deadline"},
		{Exception{Kind: ExcLoadShed, value: 0.25}, "shed with residual value 0.25"},
		{Exception{Kind: ExcLoadShed, note: "send queue full, no sheddable entry"}, "send queue full, no sheddable entry"},
		{Exception{Kind: ExcSlotMissed, pub: 3, round: 12}, "no event from node 3 in round 12"},
		{Exception{Kind: ExcTxFailure, note: "SRT transmission abandoned"}, "SRT transmission abandoned"},
		{Exception{Kind: ExcAdmissionShed}, ""},
	} {
		if got := c.e.Detail(); got != c.want {
			t.Errorf("%v Detail() = %q, want %q", c.e.Kind, got, c.want)
		}
	}
}

// Middleware state can outlive its controller request: a detach flushes
// queued requests without running their Done, so an SRT entry keeps its
// timers and handle and an NRT channel keeps the fragment it believes
// the controller holds. The bus meanwhile gives the flushed records to
// another node's frames. The stale promotion, expiry and
// CancelPublication must leave those frames alone, as must a
// CancelPublication after an NRT fragment completed.
func TestStaleHandlesLeaveReusedRecordsAlone(t *testing.T) {
	sys := idealSystem(t, 3, nil)
	mw0 := sys.Node(0).MW
	srt, _ := mw0.SRTEC(subjDiag)
	if err := srt.Announce(ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	nrt, _ := mw0.NRTEC(subjBulk)
	if err := nrt.Announce(ChannelAttrs{Prio: 252, Fragmentation: true}, nil); err != nil {
		t.Fatal(err)
	}
	other, _ := sys.Node(1).MW.SRTEC(subjOther)
	if err := other.Announce(ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	var got []byte
	sub, _ := sys.Node(2).MW.SRTEC(subjOther)
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{},
		func(ev Event, di DeliveryInfo) {
			if di.Publisher != sys.Node(1).Ctrl.Node() {
				t.Errorf("event %x from node %d", ev.Payload, di.Publisher)
			}
			got = append(got, ev.Payload...)
		}, nil)
	publishOther := func(b byte) {
		now := sys.Node(1).MW.LocalTime()
		if err := other.Publish(Event{Subject: subjOther, Payload: []byte{b},
			Attrs: EventAttrs{Deadline: now + 50*sim.Millisecond}}); err != nil {
			t.Fatal(err)
		}
	}

	// A completed NRT fragment: its record goes to node 1's frame, and a
	// later CancelPublication has nothing to abort.
	if err := nrt.Publish(Event{Subject: subjBulk, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	sys.Run(sys.K.Now() + sim.Millisecond)
	ctrl1 := sys.Node(1).Ctrl
	ctrl1.Mute(true)
	publishOther(0xb0)
	nrt.CancelPublication()
	if ctrl1.Pending() != 1 {
		t.Fatalf("node 1 pending %d after the NRT cancel, want 1", ctrl1.Pending())
	}
	if err := nrt.Announce(ChannelAttrs{Prio: 252, Fragmentation: true}, nil); err != nil {
		t.Fatal(err)
	}

	// Node 0's SRT entry (a promotion and an expiry ahead) and NRT
	// fragment are flushed by a detach; node 1's next frames take their
	// records.
	ctrl0 := sys.Node(0).Ctrl
	ctrl0.Mute(true)
	now := mw0.LocalTime()
	if err := srt.Publish(Event{Subject: subjDiag, Payload: []byte{0xa0},
		Attrs: EventAttrs{Deadline: now + 5*sim.Millisecond, Expiration: now + 3*sim.Millisecond}}); err != nil {
		t.Fatal(err)
	}
	if err := nrt.Publish(Event{Subject: subjBulk, Payload: bulk(0xa1, 20)}); err != nil {
		t.Fatal(err)
	}
	ctrl0.Detach()
	ctrl0.Reattach()
	publishOther(0xb1)
	publishOther(0xb2)
	sys.Run(sys.K.Now() + 4*sim.Millisecond) // the stale promotions and expiry fire
	nrt.CancelPublication()                  // aborts the stale fragment handle
	if ctrl1.Pending() != 3 {
		t.Fatalf("node 1 pending %d after the stale calls, want 3", ctrl1.Pending())
	}
	publishOther(0xb3) // would share a record the stale calls freed
	ctrl1.Mute(false)
	sys.Run(sys.K.Now() + 5*sim.Millisecond)
	if string(got) != "\xb0\xb1\xb2\xb3" {
		t.Fatalf("node 2 got % x, want b0 b1 b2 b3", got)
	}
}
