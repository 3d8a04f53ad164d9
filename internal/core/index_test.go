package core

import (
	"bytes"
	"slices"
	"testing"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/frag"
	"canec/internal/sim"
)

// A channel bound at the highest bindable etag still receives: the
// etag-indexed channel table grows to it, and no further.
func TestHighEtagChannelDispatches(t *testing.T) {
	const etag = can.MaxEtag - 1 // 16382: the sync channel holds MaxEtag
	sys := idealSystem(t, 2, nil)
	if err := sys.Bindings.BindFixed(subjDiag, etag); err != nil {
		t.Fatal(err)
	}
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	if err := pub.Announce(ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	var got []byte
	sub, _ := sys.Node(1).MW.SRTEC(subjDiag)
	sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{}, func(ev Event, _ DeliveryInfo) {
		got = append(got, ev.Payload...)
	}, nil)
	sys.K.At(sim.Millisecond, func() {
		pub.Publish(Event{Subject: subjDiag, Payload: []byte{42},
			Attrs: EventAttrs{Deadline: sys.Node(0).MW.LocalTime() + 5*sim.Millisecond}})
	})
	sys.Run(20 * sim.Millisecond)
	if !bytes.Equal(got, []byte{42}) {
		t.Fatalf("delivered %v, want [42]", got)
	}
	for i := range 2 {
		if n := len(sys.Node(i).MW.channels); n != etag+1 {
			t.Fatalf("node %d: channel table of %d entries, want %d", i, n, etag+1)
		}
	}
}

// Channels lists in etag order whatever order the channels were opened
// in, and the table holds no entry past the highest etag opened.
func TestChannelsListInEtagOrder(t *testing.T) {
	sys := idealSystem(t, 1, nil)
	mw := sys.Node(0).MW
	etags := []can.Etag{900, 3, 77, 4000, 12, 78}
	for i, e := range etags {
		subj := binding.Subject(0x5000 + i)
		if err := sys.Bindings.BindFixed(subj, e); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			_, err := mw.SRTEC(subj)
			if err != nil {
				t.Fatal(err)
			}
		} else if _, err := mw.NRTEC(subj); err != nil {
			t.Fatal(err)
		}
	}
	var got []can.Etag
	for _, c := range mw.Channels() {
		got = append(got, c.Etag)
	}
	want := slices.Clone(etags)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Channels() etags %v, want %v", got, want)
	}
	if n := len(mw.channels); n != int(want[len(want)-1])+1 {
		t.Fatalf("channel table of %d entries, want %d", n, want[len(want)-1]+1)
	}
}

// hrtFrame is copy idx of event seq from a publisher, as the HRT
// publisher puts it on the bus.
func hrtFrame(etag can.Etag, from can.TxNode, seq, idx uint8, payload byte) can.Frame {
	return can.Frame{ID: can.MakeID(0, from, etag), Data: []byte{seq<<4 | idx, payload}}
}

// The subscriber keeps deduplication and the de-jitter stash per
// publisher, for the lowest and the highest TxNode, while their copies
// interleave: a redundant copy of one publisher's event arrives after
// the other publisher's first copy.
func TestHRTStashPerPublisherAtTxNodeBounds(t *testing.T) {
	const subj binding.Subject = 0x6001
	cfg := calendar.DefaultConfig()
	cfg.OmissionDegree = 1
	cal, err := calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: uint64(subj), Publisher: 0, Payload: 8},
		calendar.Slot{Subject: uint64(subj), Publisher: can.MaxTxNode, Payload: 8})
	if err != nil {
		t.Fatal(err)
	}
	sys := idealSystem(t, 2, cal)
	mw := sys.Node(1).MW
	type delivery struct {
		pub     can.TxNode
		payload byte
		at      sim.Time
		copies  int
	}
	var got []delivery
	sub, _ := mw.HRTEC(subj)
	if err := sub.Subscribe(ChannelAttrs{Payload: 7}, SubscribeAttrs{}, func(ev Event, di DeliveryInfo) {
		got = append(got, delivery{di.Publisher, ev.Payload[0], di.DeliveredAt, di.Copies})
	}, nil); err != nil {
		t.Fatal(err)
	}
	etag := mustEtag(t, sys, subj)
	a, b := cal.Slots[0], cal.Slots[1]
	const rounds = 4
	var want []delivery
	for r := int64(0); r < rounds; r++ {
		start := roundStart(sys, r)
		seq := uint8(r+1) & 0x0f
		rx := func(at sim.Time, fs ...can.Frame) {
			sys.K.At(at, func() {
				for _, f := range fs {
					mw.dispatch(f, sys.K.Now())
				}
			})
		}
		rx(start+a.LST(cfg)+10*sim.Microsecond, hrtFrame(etag, 0, seq, 0, byte(r)))
		rx(start+b.LST(cfg)+10*sim.Microsecond,
			hrtFrame(etag, can.MaxTxNode, seq, 0, byte(100+r)),
			hrtFrame(etag, 0, seq, 1, byte(r)),
			hrtFrame(etag, can.MaxTxNode, seq, 1, byte(100+r)))
		want = append(want,
			delivery{0, byte(r), start + a.Deadline(cfg), 1},
			delivery{can.MaxTxNode, byte(100 + r), start + b.Deadline(cfg), 2})
	}
	sys.Run(roundStart(sys, rounds))
	if !slices.Equal(got, want) {
		t.Fatalf("deliveries\n got %v\nwant %v", got, want)
	}
	c := mw.Counters()
	if c.DuplicatesDropped != 2*rounds || c.LateHRTDeliveries != 0 {
		t.Fatalf("duplicates dropped %d (want %d), late %d", c.DuplicatesDropped, 2*rounds, c.LateHRTDeliveries)
	}
	if n := len(mw.channelAt(etag).pubs); n != can.MaxTxNode+1 {
		t.Fatalf("publisher table of %d entries, want %d", n, can.MaxTxNode+1)
	}
}

// NRT reassembly is per publisher: fragments of two messages from the
// lowest and the highest TxNode, interleaved one by one, both complete.
func TestNRTReassemblyPerPublisherAtTxNodeBounds(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	mw := sys.Node(1).MW
	type delivery struct {
		pub can.TxNode
		msg []byte
	}
	var got []delivery
	sub, _ := mw.NRTEC(subjBulk)
	sub.Subscribe(ChannelAttrs{Fragmentation: true}, SubscribeAttrs{}, func(ev Event, di DeliveryInfo) {
		got = append(got, delivery{di.Publisher, bytes.Clone(ev.Payload)})
	}, nil)
	etag := mustEtag(t, sys, subjBulk)
	msgs := map[can.TxNode][]byte{0: make([]byte, 61), can.MaxTxNode: make([]byte, 45)}
	for n, m := range msgs {
		for i := range m {
			m[i] = byte(int(n) + i)
		}
	}
	chains := map[can.TxNode]*frag.Chain{}
	for n, m := range msgs {
		c, err := frag.NewChain(m)
		if err != nil {
			t.Fatal(err)
		}
		chains[n] = &c
	}
	at := sim.Millisecond
	for !chains[0].Done() || !chains[can.MaxTxNode].Done() {
		for _, n := range []can.TxNode{0, can.MaxTxNode} {
			if c := chains[n]; !c.Done() {
				var buf [8]byte
				f := can.Frame{ID: can.MakeID(255, n, etag), Data: bytes.Clone(c.Next(&buf))}
				sys.K.At(at, func() { mw.dispatch(f, sys.K.Now()) })
				at += 100 * sim.Microsecond
			}
		}
	}
	sys.Run(at + sim.Millisecond)
	if len(got) != 2 {
		t.Fatalf("%d messages delivered, want 2", len(got))
	}
	for _, d := range got {
		if !bytes.Equal(d.msg, msgs[d.pub]) {
			t.Fatalf("publisher %d: message %v, want %v", d.pub, d.msg, msgs[d.pub])
		}
	}
	if got[0].pub == got[1].pub {
		t.Fatalf("both messages from publisher %d", got[0].pub)
	}
}
