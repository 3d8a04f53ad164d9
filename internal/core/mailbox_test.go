package core

import (
	"bytes"
	"testing"
	"unsafe"

	"canec/internal/can"
	"canec/internal/frag"
	"canec/internal/sim"
)

func TestGetEventMailbox(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	// The paper's style: the notification handler is a pure signal and the
	// application fetches the event from middleware memory.
	notified := 0
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(Event, DeliveryInfo) { notified++ }, nil)
	if _, _, ok := sub.GetEvent(); ok {
		t.Fatal("mailbox filled before any delivery")
	}
	for r := int64(0); r < 3; r++ {
		r := r
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			pub.Publish(Event{Subject: subjTemp, Payload: []byte{byte(10 + r)}})
		})
	}
	sys.Run(sys.Cfg.Epoch + 3*cal.Round - 1)
	if notified != 3 {
		t.Fatalf("notified = %d", notified)
	}
	ev, di, ok := sub.GetEvent()
	if !ok || ev.Payload[0] != 12 {
		t.Fatalf("mailbox = %v %v %v, want latest event 12", ev, di, ok)
	}
	if di.DeliveredAt == 0 || di.Publisher != 0 {
		t.Fatalf("mailbox delivery info = %+v", di)
	}
}

func TestGetEventSRTAndNRT(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	srtP, _ := sys.Node(0).MW.SRTEC(subjDiag)
	srtP.Announce(ChannelAttrs{}, nil)
	srtS, _ := sys.Node(1).MW.SRTEC(subjDiag)
	srtS.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, nil, nil) // mailbox-only subscriber
	nrtP, _ := sys.Node(0).MW.NRTEC(subjBulk)
	nrtP.Announce(ChannelAttrs{Prio: 255, Fragmentation: true}, nil)
	nrtS, _ := sys.Node(1).MW.NRTEC(subjBulk)
	nrtS.Subscribe(ChannelAttrs{Fragmentation: true}, SubscribeAttrs{}, nil, nil)
	sys.K.At(sim.Millisecond, func() {
		srtP.Publish(Event{Subject: subjDiag, Payload: []byte{0x5A}})
		nrtP.Publish(Event{Subject: subjBulk, Payload: make([]byte, 50)})
	})
	sys.Run(100 * sim.Millisecond)
	if ev, _, ok := srtS.GetEvent(); !ok || ev.Payload[0] != 0x5A {
		t.Fatalf("SRT mailbox = %v %v", ev, ok)
	}
	if ev, _, ok := nrtS.GetEvent(); !ok || len(ev.Payload) != 50 {
		t.Fatalf("NRT mailbox = %v %v", ev, ok)
	}
}

func TestQueueCapConfigurable(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	overflow := 0
	pub.Announce(ChannelAttrs{Payload: 7, Periodic: true, QueueCap: 2},
		func(e Exception) {
			if e.Kind == ExcQueueOverflow {
				overflow++
			}
		})
	for i := 0; i < 3; i++ {
		pub.Publish(Event{Subject: subjTemp, Payload: []byte{byte(i)}})
	}
	if overflow != 1 {
		t.Fatalf("overflow = %d with cap 2 and 3 publishes", overflow)
	}
}

// Every node builds one channelState per channel it uses, so set-up time
// follows its allocation class: the mailbox buffer must fit in 448 bytes.
func TestChannelStateSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(channelState{}); n > 448 {
		t.Fatalf("channelState is %d bytes, past the 448-byte class", n)
	}
}

// wireTap records the payload of every frame the bus transmits
// successfully on an etag.
func wireTap(sys *System, etag can.Etag) *[][]byte {
	got := new([][]byte)
	prev := sys.Bus.Trace
	sys.Bus.Trace = func(e can.TraceEvent) {
		if prev != nil {
			prev(e)
		}
		if e.Kind == can.TraceTxOK && e.Frame.ID.Etag() == etag {
			*got = append(*got, bytes.Clone(e.Frame.Data))
		}
	}
	return got
}

// scribble overwrites a publisher's buffer, as a publisher reusing it for
// its next event does.
func scribble(p []byte) {
	for i := range p {
		p[i] = 0xee
	}
}

// An HRT publisher may reuse its buffer as soon as Publish returns: the
// slot queue keeps its own copy, so the wire carries the published bytes,
// and so do the events of a queue overflow and a transmission failure.
func TestHRTPublishCopiesPayload(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	guard := &muteAll{}
	sys.Bus.Guardian = guard
	pub, _ := sys.Node(0).MW.HRTEC(subjTemp)
	var excs []Exception
	if err := pub.Announce(ChannelAttrs{Payload: 7, Periodic: true, QueueCap: 1},
		func(e Exception) { excs = append(excs, e) }); err != nil {
		t.Fatal(err)
	}
	etag, _ := sys.Node(0).MW.Bindings.Bind(subjTemp)
	wire := wireTap(sys, etag)
	var got [][]byte
	sub, _ := sys.Node(1).MW.HRTEC(subjTemp)
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(ev Event, _ DeliveryInfo) { got = append(got, bytes.Clone(ev.Payload)) }, nil)

	buf := []byte{1, 2, 3}
	if err := pub.Publish(Event{Subject: subjTemp, Payload: buf}); err != nil {
		t.Fatal(err)
	}
	scribble(buf)
	over := []byte{4, 5, 6}
	if pub.Publish(Event{Subject: subjTemp, Payload: over}) == nil {
		t.Fatal("second publish fit a queue of one")
	}
	scribble(over)
	sys.Run(roundStart(sys, 1) - 1)
	if len(*wire) != 1 || string((*wire)[0][hrtHeaderLen:]) != "\x01\x02\x03" {
		t.Fatalf("wire % x, want the header and 01 02 03", *wire)
	}
	if len(got) != 1 || string(got[0]) != "\x01\x02\x03" {
		t.Fatalf("delivered % x, want 01 02 03", got)
	}

	buf = []byte{7, 8, 9}
	guard.on = true
	if err := pub.Publish(Event{Subject: subjTemp, Payload: buf}); err != nil {
		t.Fatal(err)
	}
	scribble(buf)
	sys.Run(roundStart(sys, 2) - 1)
	if len(excs) != 2 || excs[0].Kind != ExcQueueOverflow || excs[1].Kind != ExcTxFailure {
		t.Fatalf("exceptions %v, want QueueOverflow then TxFailure", excs)
	}
	if ev, _ := excs[0].event(); string(ev.Payload) != "\x04\x05\x06" {
		t.Fatalf("QueueOverflow payload % x, want 04 05 06", ev.Payload)
	}
	if ev, _ := excs[1].event(); string(ev.Payload) != "\x07\x08\x09" {
		t.Fatalf("TxFailure payload % x, want 07 08 09", ev.Payload)
	}
}

// An SRT publisher may reuse its buffer as soon as Publish returns: the
// entry keeps its own copy for the wire and for the event of a deadline
// miss.
func TestSRTPublishCopiesPayload(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	var excs []Exception
	if err := pub.Announce(ChannelAttrs{}, func(e Exception) { excs = append(excs, e) }); err != nil {
		t.Fatal(err)
	}
	etag, _ := sys.Node(0).MW.Bindings.Bind(subjDiag)
	wire := wireTap(sys, etag)
	var got [][]byte
	sub, _ := sys.Node(1).MW.SRTEC(subjDiag)
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{},
		func(ev Event, _ DeliveryInfo) { got = append(got, bytes.Clone(ev.Payload)) }, nil)

	ctrl := sys.Node(0).Ctrl
	ctrl.Mute(true)
	buf := []byte{1, 2, 3}
	now := sys.Node(0).MW.LocalTime()
	if err := pub.Publish(Event{Subject: subjDiag, Payload: buf,
		Attrs: EventAttrs{Deadline: now + 100*sim.Microsecond}}); err != nil {
		t.Fatal(err)
	}
	scribble(buf)
	sys.Run(sys.K.Now() + sim.Millisecond)
	ctrl.Mute(false)
	sys.Run(sys.K.Now() + sim.Millisecond) // sent late
	if len(*wire) != 1 || string((*wire)[0]) != "\x01\x02\x03" {
		t.Fatalf("wire % x, want 01 02 03", *wire)
	}
	if len(got) != 1 || string(got[0]) != "\x01\x02\x03" {
		t.Fatalf("delivered % x, want 01 02 03", got)
	}
	if len(excs) != 1 || excs[0].Kind != ExcDeadlineMissed {
		t.Fatalf("exceptions %v, want one DeadlineMissed", excs)
	}
	if ev, _ := excs[0].event(); string(ev.Payload) != "\x01\x02\x03" {
		t.Fatalf("DeadlineMissed payload % x, want 01 02 03", ev.Payload)
	}
}

// An NRT publisher may reuse its buffer as soon as Publish returns: the
// fragment chain runs over the message's own copy.
func TestNRTPublishCopiesPayload(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	pub, _, got, _ := nrtPair(t, sys)
	etag, _ := sys.Node(0).MW.Bindings.Bind(subjBulk)
	wire := wireTap(sys, etag)
	msg := bulk(0x10, 20)
	want := bytes.Clone(msg)
	if err := pub.Publish(Event{Subject: subjBulk, Payload: msg}); err != nil {
		t.Fatal(err)
	}
	scribble(msg)
	sys.Run(sys.K.Now() + 5*sim.Millisecond)
	if len(*got) != 1 || !bytes.Equal((*got)[0], want) {
		t.Fatalf("delivered % x, want % x", *got, want)
	}
	var onWire []byte
	for _, f := range *wire {
		if bytes.Contains(f, []byte{0xee}) {
			t.Fatalf("fragment % x carries the overwritten buffer", f)
		}
		onWire = append(onWire, f...)
	}
	if !bytes.Contains(onWire, want[:6]) || len(*wire) != frag.FrameCount(len(want)) {
		t.Fatalf("%d fragments % x, want %d carrying % x", len(*wire), onWire, frag.FrameCount(len(want)), want)
	}
}
