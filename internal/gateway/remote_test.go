package gateway

import (
	"testing"

	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
)

// A steady-state SRT event crossing a joined pair allocates nothing: the
// shipping bridge copies the payload into its slab, the hop's FIFO and
// timer are reused, and the republish is an ordinary SRT publish.
func TestJoinHopAllocsPinned(t *testing.T) {
	k, segA, segB, ga, gb := rig(t, 1, 200*sim.Microsecond)
	if err := forwardSRT(ga, gb, subjTemp); err != nil {
		t.Fatal(err)
	}
	pub, _ := segA.Node(0).MW.SRTEC(subjTemp)
	if err := pub.Announce(core.ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	got := 0
	sub, _ := segB.Node(1).MW.SRTEC(subjTemp)
	sub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) { got++ }, nil)
	payload := []byte{1, 2, 3, 4}
	send := func() {
		payload[0]++
		err := pub.Publish(core.Event{Subject: subjTemp, Payload: payload,
			Attrs: core.EventAttrs{Deadline: segA.Node(0).MW.LocalTime() + 5*sim.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		k.Run(k.Now() + 2*sim.Millisecond)
	}
	for i := 0; i < 5; i++ {
		send()
	}
	const runs = 200
	if per := testing.AllocsPerRun(runs, send); per != 0 {
		t.Fatalf("%.2f allocs per forwarded event, want 0", per)
	}
	if want := 5 + runs + 1; got != want || ga.Forwarded() != uint64(want) || gb.Received() != uint64(want) {
		t.Fatalf("delivered %d, forwarded %d, received %d, want %d each",
			got, ga.Forwarded(), gb.Received(), want)
	}
}

// The shipped copies are disjoint slab views: a holder's append
// reallocates instead of writing into the next event's bytes.
func TestShipCopiesAreClipped(t *testing.T) {
	_, _, _, ga, _ := rig(t, 1, 50*sim.Microsecond)
	a := ga.own([]byte{1, 2, 3})
	b := ga.own([]byte{4, 5})
	if cap(a) != len(a) || cap(b) != len(b) {
		t.Fatalf("caps %d, %d, want %d, %d", cap(a), cap(b), len(a), len(b))
	}
	a = append(a, 9)
	if b[0] != 4 || b[1] != 5 || a[3] != 9 {
		t.Fatalf("append to one copy changed another: % x, % x", a, b)
	}
	big := make([]byte, slabMax+1)
	if c := ga.own(big); len(c) != len(big) || &c[0] == &big[0] {
		t.Fatal("a payload above slabMax is not copied")
	}
}

// The transit table is a FIFO of at most transitCap entries: past the
// cap each insert evicts the oldest and allocates nothing, and only the
// siblings of the receiving bridge keep an entry.
func TestTransitTableRing(t *testing.T) {
	_, _, segB, _, gb := rig(t, 1, 50*sim.Microsecond)
	sib, err := NewRemote(segB.Node(1).MW, &queueRemote{}, "b")
	if err != nil {
		t.Fatal(err)
	}
	gb.LinkSiblings(sib)
	var next uint64
	most := 0
	insert := func() {
		next++
		gb.rememberTransit(RemoteEvent{TraceID: next, OriginSeg: "a", Budget: budget}, 0)
		most = max(most, len(sib.transit))
	}
	for next < transitCap {
		insert()
	}
	ring := &sib.transitOrder[0]
	insert()
	if _, ok := sib.transit[1]; ok {
		t.Fatal("the oldest entry survived the insert past the cap")
	}
	if _, ok := sib.transit[2]; !ok {
		t.Fatal("an entry other than the oldest was evicted")
	}
	if per := testing.AllocsPerRun(transitCap, insert); per != 0 {
		t.Fatalf("%.2f allocs per insert past the cap, want 0", per)
	}
	if &sib.transitOrder[0] != ring {
		t.Fatal("the insertion order was reallocated past the cap")
	}
	if most != transitCap {
		t.Fatalf("table held up to %d entries, want %d", most, transitCap)
	}
	oldest := next - transitCap + 1
	if _, ok := sib.transit[oldest-1]; ok {
		t.Fatalf("entry %d survived %d newer ones", oldest-1, transitCap)
	}
	for id := oldest; id <= next; id++ {
		if _, ok := sib.transit[id]; !ok {
			t.Fatalf("entry %d of the last %d evicted", id, transitCap)
		}
	}
	if n := len(gb.transit); n != 0 {
		t.Fatalf("the receiving bridge kept %d entries of its own, want 0", n)
	}
}

// On a chain A → B → C the transit entries sit only where they are read:
// the sibling forwarding off B consumes each one, and neither the bridge
// that received the event on B nor the sibling-less end on C keeps any.
func TestTransitEntriesOnlyOnSiblings(t *testing.T) {
	k := sim.NewKernel(3)
	seg := func(o *obs.Config) *core.System {
		s, err := core.NewSystem(core.SystemConfig{Nodes: 3, Kernel: k, Observe: o})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	segA, segB, segC := seg(&obs.Config{}), seg(nil), seg(nil) // A's events carry trace IDs
	ga, gb, err := Join(segA.Node(2).MW, segB.Node(2).MW, "a", "b", 50*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	gb2, gc, err := Join(segB.Node(1).MW, segC.Node(2).MW, "b", "c", 50*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	gb.LinkSiblings(gb2)
	if err := forwardSRT(ga, gb, subjTemp); err != nil {
		t.Fatal(err)
	}
	if err := forwardSRT(gb2, gc, subjTemp); err != nil {
		t.Fatal(err)
	}
	pub, _ := segA.Node(0).MW.SRTEC(subjTemp)
	if err := pub.Announce(core.ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	got := 0
	sub, _ := segC.Node(1).MW.SRTEC(subjTemp)
	sub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) { got++ }, nil)
	const n = 20
	for i := 0; i < n; i++ {
		k.At(sim.Time(i+1)*sim.Millisecond, func() {
			pub.Publish(core.Event{Subject: subjTemp, Payload: []byte{byte(i)},
				Attrs: core.EventAttrs{Deadline: segA.Node(0).MW.LocalTime() + 5*sim.Millisecond}})
		})
	}
	k.Run(100 * sim.Millisecond)
	if got != n || gb2.Forwarded() != n {
		t.Fatalf("delivered %d on C, forwarded %d off B, want %d", got, gb2.Forwarded(), n)
	}
	for name, b := range map[string]*RemoteBridge{"gb": gb, "gb2": gb2, "gc": gc} {
		if len(b.transit) != 0 {
			t.Errorf("%s keeps %d transit entries, want 0", name, len(b.transit))
		}
	}
	if len(gb2.transitOrder) != n || len(gb.transitOrder) != 0 || len(gc.transitOrder) != 0 {
		t.Fatalf("recorded %d/%d/%d trace IDs on gb2/gb/gc, want %d/0/0",
			len(gb2.transitOrder), len(gb.transitOrder), len(gc.transitOrder), n)
	}
}
