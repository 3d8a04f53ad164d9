package core

import (
	"testing"

	"canec/internal/can"
	"canec/internal/sim"
)

// roundStart is the kernel time of round r's start on an ideal system.
func roundStart(sys *System, r int64) sim.Time {
	return sys.Cfg.Epoch + sim.Time(r)*sys.Cfg.Calendar.Round
}

// Every subscriber's node delivers into its own channel mailbox: a
// handler that scribbles over its payload changes neither the other
// subscriber's payload nor what the other's GetEvent returns. Within one
// channel the mailbox is reused: a payload slice kept past the handler
// shows the next delivery's bytes, so a handler that keeps the bytes
// copies them.
func TestSubscriberPayloadsIndependent(t *testing.T) {
	const rounds = 5
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 3, cal)
	hrtPub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	if err := hrtPub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
		t.Fatal(err)
	}
	srtPub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	if err := srtPub.Announce(ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	type got struct {
		copies, kept [][]byte
	}
	type sub struct {
		hrt, srt     *got
		hrtCh, srtCh Channel
	}
	subscribe := func(node int, scribble bool) sub {
		hrtGot, srtGot := &got{}, &got{}
		record := func(g *got) NotificationHandler {
			return func(ev Event, _ DeliveryInfo) {
				g.copies = append(g.copies, append([]byte(nil), ev.Payload...))
				g.kept = append(g.kept, ev.Payload)
				if scribble {
					for i := range ev.Payload {
						ev.Payload[i] = 0xee
					}
				}
			}
		}
		h, _ := sys.Node(node).MW.HRTEC(subjTemp)
		if err := h.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{}, record(hrtGot), nil); err != nil {
			t.Fatal(err)
		}
		s, _ := sys.Node(node).MW.SRTEC(subjDiag)
		if err := s.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, record(srtGot), nil); err != nil {
			t.Fatal(err)
		}
		return sub{hrt: hrtGot, srt: srtGot, hrtCh: h, srtCh: s}
	}
	a := subscribe(1, true)
	b := subscribe(2, false)

	buf := make([]byte, 3)
	for r := int64(0); r < rounds; r++ {
		r := r
		sys.K.At(roundStart(sys, r)-100*sim.Microsecond, func() {
			if err := hrtPub.Publish(Event{Subject: subjTemp, Payload: []byte{byte(r), 1, 2}}); err != nil {
				t.Fatal(err)
			}
			// The SRT publisher reuses one buffer: Publish must not keep it.
			buf[0], buf[1], buf[2] = byte(r), 3, 4
			if err := srtPub.Publish(Event{Subject: subjDiag, Payload: buf}); err != nil {
				t.Fatal(err)
			}
			buf[0], buf[1], buf[2] = 0xdd, 0xdd, 0xdd
		})
	}
	sys.Run(roundStart(sys, rounds) - 1)

	for _, c := range []struct {
		name     string
		got      *got
		tail     [2]byte
		scribble bool
		ch       Channel
	}{
		{"HRT a", a.hrt, [2]byte{1, 2}, true, a.hrtCh},
		{"SRT a", a.srt, [2]byte{3, 4}, true, a.srtCh},
		{"HRT b", b.hrt, [2]byte{1, 2}, false, b.hrtCh},
		{"SRT b", b.srt, [2]byte{3, 4}, false, b.srtCh},
	} {
		if len(c.got.copies) != rounds {
			t.Fatalf("%s: %d deliveries, want %d", c.name, len(c.got.copies), rounds)
		}
		// What each handler copied is what was published, whatever the
		// other node's handler did to its own mailbox.
		for r, p := range c.got.copies {
			if want := []byte{byte(r), c.tail[0], c.tail[1]}; string(p) != string(want) {
				t.Fatalf("%s round %d: payload %v, want %v", c.name, r, p, want)
			}
		}
		// Every delivery lands in the one mailbox, which holds the last.
		last := []byte{rounds - 1, c.tail[0], c.tail[1]}
		if c.scribble {
			last = []byte{0xee, 0xee, 0xee}
		}
		for r, p := range c.got.kept {
			if &p[0] != &c.got.kept[0][0] || string(p) != string(last) {
				t.Fatalf("%s round %d: kept slice %v, want the mailbox's %v", c.name, r, p, last)
			}
		}
		ev, _, ok := c.ch.GetEvent()
		if !ok || &ev.Payload[0] != &c.got.kept[0][0] || string(ev.Payload) != string(last) {
			t.Fatalf("%s: GetEvent %v %v is not the mailbox", c.name, ev.Payload, ok)
		}
	}
	if &a.hrt.kept[0][0] == &b.hrt.kept[0][0] || &a.srt.kept[0][0] == &b.srt.kept[0][0] {
		t.Fatal("two nodes' subscribers share a mailbox")
	}
}

// muteAll is a bus guardian that drops every frame while on.
type muteAll struct{ on bool }

func (g *muteAll) Judge(can.Frame, int, sim.Time) can.GuardianVerdict {
	if g.on {
		return can.GuardMuteFrame
	}
	return can.GuardAllow
}

// A slot that fires while the previous round's copy is still pending
// takes a second transmission record. When both copies fail, each
// TxFailure exception carries its own event, and the records go back to
// the channel's free list for the next rounds to reuse.
func TestHRTOverlappingTransmissionsFail(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	guard := &muteAll{}
	sys.Bus.Guardian = guard
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	var failed []Event
	err := pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, func(e Exception) {
		if e.Kind == ExcTxFailure {
			ev, _ := e.event()
			failed = append(failed, ev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	var got []byte
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(ev Event, _ DeliveryInfo) { got = append(got, ev.Payload[0]) }, nil)
	ch := pub.ch
	ctrl := sys.Node(0).Ctrl

	// The muted controller holds round 0's copy until round 1 fires.
	ctrl.Mute(true)
	for _, b := range []byte{0xa0, 0xb1} {
		if err := pub.Publish(Event{Subject: subjTemp, Payload: []byte{b}}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run(roundStart(sys, 2) - sim.Millisecond)
	if ctrl.Pending() != 2 || len(ch.hrtTxFree) != 0 {
		t.Fatalf("pending %d, free records %d: want both rounds' copies outstanding",
			ctrl.Pending(), len(ch.hrtTxFree))
	}
	guard.on = true
	ctrl.Mute(false)
	sys.Run(sys.K.Now() + 100*sim.Microsecond)
	if len(failed) != 2 || &failed[0].Payload[0] == &failed[1].Payload[0] {
		t.Fatalf("TxFailure events %v, want two distinct", failed)
	}
	if failed[0].Payload[0] != 0xa0 || failed[1].Payload[0] != 0xb1 {
		t.Fatalf("TxFailure payloads %#x %#x, want 0xa0 0xb1",
			failed[0].Payload[0], failed[1].Payload[0])
	}
	if len(ch.hrtTxFree) != 2 {
		t.Fatalf("%d free records after both failures, want 2", len(ch.hrtTxFree))
	}
	records := map[*hrtTx]bool{ch.hrtTxFree[0]: true, ch.hrtTxFree[1]: true}

	guard.on = false
	for r := int64(2); r < 5; r++ {
		sys.K.At(roundStart(sys, r)-100*sim.Microsecond, func() {
			pub.Publish(Event{Subject: subjTemp, Payload: []byte{byte(0xc0 + r)}})
		})
	}
	sys.Run(roundStart(sys, 5) - 1)
	if string(got) != string([]byte{0xc2, 0xc3, 0xc4}) {
		t.Fatalf("delivered %x after the failures, want c2c3c4", got)
	}
	if len(ch.hrtTxFree) != 2 || !records[ch.hrtTxFree[0]] || !records[ch.hrtTxFree[1]] {
		t.Fatal("later rounds made new transmission records instead of reusing the free ones")
	}
	if failed[0].Payload[0] != 0xa0 || failed[1].Payload[0] != 0xb1 {
		t.Fatal("a reused record changed an exception's event")
	}
}

// A steady-state HRT round with S subscribers — publish, slot, transmit,
// stash, deliver at the deadline — allocates nothing: the request record
// is recycled, and each delivery lands in its channel's mailbox.
func TestHRTRoundAllocsPinned(t *testing.T) {
	const subs = 5
	cal := testCalendar(t, 1)
	sys := idealSystem(t, subs+1, cal)
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	if err := pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 1; i <= subs; i++ {
		s, _ := sys.Node(i).MW.HRTEC(subjTemp)
		s.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
			func(Event, DeliveryInfo) { delivered++ }, nil)
	}
	payload := []byte{1, 2, 3, 4, 5, 6, 7}
	r := int64(0)
	round := func() {
		sys.Run(roundStart(sys, r) - 100*sim.Microsecond)
		if err := pub.Publish(Event{Subject: subjTemp, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		r++
	}
	for i := 0; i < 5; i++ {
		round()
	}
	const runs = 100
	if per := testing.AllocsPerRun(runs, round); per != 0 {
		t.Fatalf("HRT round with %d subscribers: %.2f allocs, want 0", subs, per)
	}
	if want := subs * int(r-1); delivered != want {
		t.Fatalf("delivered %d, want %d", delivered, want)
	}

	// Past a publisher's first frame, receive → deliver allocates
	// nothing either: for the slot's publisher, whose state Subscribe
	// made, and for one without a slot (only deduplicated), whose state
	// its first frame made.
	mw := sys.Node(1).MW
	mw.DeliverOnArrival = true
	etag := mustEtag(t, sys, subjTemp)
	seq, data := uint8(0), make([]byte, 2)
	recv := func() {
		seq = (seq + 1) & 0x0f
		data[0], data[1] = seq<<4, seq
		for _, from := range []can.TxNode{0, can.MaxTxNode} {
			mw.dispatch(can.Frame{ID: can.MakeID(0, from, etag), Data: data}, sys.K.Now())
		}
	}
	recv()
	delivered = 0
	if per := testing.AllocsPerRun(runs, recv); per != 0 {
		t.Fatalf("HRT receive → deliver: %.2f allocs, want 0", per)
	}
	if delivered != runs+1 {
		t.Fatalf("delivered %d on arrival, want %d", delivered, runs+1)
	}
}
