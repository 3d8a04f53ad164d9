package gateway

import (
	"fmt"
	"testing"

	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
)

// A steady-state SRT event crossing a joined pair allocates nothing: the
// shipping bridge copies the payload into its slab, the hop's FIFO and
// timer are reused, and the republish is an ordinary SRT publish. Across
// a transit segment it allocates nothing either: the federation header
// rides the republished event by value.
func TestJoinHopAllocsPinned(t *testing.T) {
	for _, n := range []int{2, 3} {
		k := sim.NewKernel(1)
		segs, hops := chain(t, k, n, func(int) *obs.Config { return nil })
		pub, _ := segs[0].Node(0).MW.SRTEC(subjTemp)
		if err := pub.Announce(core.ChannelAttrs{}, nil); err != nil {
			t.Fatal(err)
		}
		got := 0
		sub, _ := segs[n-1].Node(1).MW.SRTEC(subjTemp)
		sub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
			func(core.Event, core.DeliveryInfo) { got++ }, nil)
		payload := []byte{1, 2, 3, 4}
		send := func() {
			payload[0]++
			err := pub.Publish(core.Event{Subject: subjTemp, Payload: payload,
				Attrs: core.EventAttrs{Deadline: segs[0].Node(0).MW.LocalTime() + 5*sim.Millisecond}})
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
			t.Fatalf("%d segments: %.2f allocs per forwarded event, want 0", n, per)
		}
		last := hops[n-2]
		if want := 5 + runs + 1; got != want || last[0].Forwarded() != uint64(want) || last[1].Received() != uint64(want) {
			t.Fatalf("%d segments: delivered %d, forwarded %d, received %d on the last hop, want %d each",
				n, got, last[0].Forwarded(), last[1].Received(), want)
		}
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

// transitRig builds A → B with a Join between the node-2 endpoints and
// two more bridges on B, each shipping subjTemp to a sink: sib on B's
// node 3, linked to the Join's B end, and unlinked on B's node 1, which
// neither links nor excludes it. Stations 0 publish on A and subscribe
// on B; station 1 subscribes on A.
func transitRig(t *testing.T, observe *obs.Config) (k *sim.Kernel, segA, segB *core.System, ga, gb, sib, unlinked *RemoteBridge) {
	t.Helper()
	k = sim.NewKernel(3)
	segA, segB = segment(t, k, 4, observe), segment(t, k, 4, observe)
	ga, gb, err := Join(segA.Node(2).MW, segB.Node(2).MW, "a", "b", 50*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := forwardSRT(ga, gb, subjTemp); err != nil {
		t.Fatal(err)
	}
	sib, unlinked = sinkBridge(t, segB.Node(3).MW), sinkBridge(t, segB.Node(1).MW)
	gb.LinkSiblings(sib)
	return k, segA, segB, ga, gb, sib, unlinked
}

// On A → B → C the event a linked sibling ships off B keeps A's origin
// and segment, has crossed one hop, and has what the arrival budget left
// after its exact residence on B; a bridge on B that is not linked ships
// the same event as published on B. Observed or not, nothing differs.
func TestSiblingKeepsOriginAndDebitsResidence(t *testing.T) {
	for _, observe := range []*obs.Config{nil, {}} {
		k, segA, segB, ga, gb, sib, unlinked := transitRig(t, observe)
		pub, _ := segA.Node(0).MW.SRTEC(subjTemp)
		if err := pub.Announce(core.ChannelAttrs{}, nil); err != nil {
			t.Fatal(err)
		}
		// A bridge ships an event at the instant its frame reaches the
		// other stations of its bus.
		var leftA, leftB []sim.Time
		record := func(sys *core.System, node int, at *[]sim.Time) {
			sub, _ := sys.Node(node).MW.SRTEC(subjTemp)
			sub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
				func(_ core.Event, di core.DeliveryInfo) { *at = append(*at, di.DeliveredAt) }, nil)
		}
		record(segA, 1, &leftA)
		record(segB, 0, &leftB)
		const n = 3
		for i := 0; i < n; i++ {
			k.At(sim.Time(i+1)*sim.Millisecond, func() {
				pub.Publish(core.Event{Subject: subjTemp, Payload: []byte{byte(i)},
					Attrs: core.EventAttrs{Deadline: segA.Node(0).MW.LocalTime() + 5*sim.Millisecond}})
			})
		}
		k.Run(50 * sim.Millisecond)

		toC, other := sib.r.(*sinkRemote), unlinked.r.(*sinkRemote)
		if len(leftA) != n || len(leftB) != n || len(toC.got) != n || len(other.got) != n {
			t.Fatalf("observe %v: %d/%d deliveries on A/B, %d/%d shipped off B, want %d each",
				observe != nil, len(leftA), len(leftB), len(toC.got), len(other.got), n)
		}
		origin := segA.Node(0).Ctrl.Node()
		for i := 0; i < n; i++ {
			arrived := leftA[i] + 50*sim.Microsecond
			residence := leftB[i] - arrived
			if residence <= 0 || toC.at[i] != leftB[i] {
				t.Fatalf("event %d: arrived on B at %v, delivered there at %v, shipped at %v",
					i, arrived, leftB[i], toC.at[i])
			}
			if re := toC.got[i]; re.Origin != origin || re.OriginSeg != "a" || re.Hops != 1 || re.Budget != budget-residence {
				t.Errorf("observe %v, event %d: sibling shipped origin %d/%q, hops %d, budget %v; want %d/\"a\", 1, %v",
					observe != nil, i, re.Origin, re.OriginSeg, re.Hops, re.Budget, origin, budget-residence)
			}
			if re := other.got[i]; re.Origin != gb.node || re.OriginSeg != "b" || re.Hops != 0 || re.Budget != budget {
				t.Errorf("observe %v, event %d: unlinked bridge shipped origin %d/%q, hops %d, budget %v; want %d/\"b\", 0, %v",
					observe != nil, i, re.Origin, re.OriginSeg, re.Hops, re.Budget, gb.node, budget)
			}
		}
		if ga.Forwarded() != n || gb.Received() != n || sib.Forwarded() != n || unlinked.Forwarded() != n {
			t.Fatalf("forwarded %d/%d/%d, received %d, want %d each",
				ga.Forwarded(), sib.Forwarded(), unlinked.Forwarded(), gb.Received(), n)
		}
	}
}

// sinkBridge is a bridge on m that forwards subjTemp to a sinkRemote.
func sinkBridge(t *testing.T, m *core.Middleware) *RemoteBridge {
	t.Helper()
	b, err := NewRemote(m, &sinkRemote{k: m.K}, "b")
	if err == nil {
		err = b.Forward(core.SRT, subjTemp, core.ChannelAttrs{})
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sinkRemote is a Remote that keeps every sent event and the instant it
// was sent; nothing ever arrives from it.
type sinkRemote struct {
	k   *sim.Kernel
	got []RemoteEvent
	at  []sim.Time
}

func (r *sinkRemote) SetReceiver(func(RemoteEvent)) {}

func (r *sinkRemote) Send(re RemoteEvent) error {
	r.got = append(r.got, re)
	r.at = append(r.at, r.k.Now())
	return nil
}

// A bridge numbers at most maxOrigins origin segments in its headers, so
// a peer naming ever new ones cannot grow it without bound; an event
// from one more travels on without a header.
func TestOriginNumbersBounded(t *testing.T) {
	_, _, _, _, gb := rig(t, 1, 50*sim.Microsecond)
	for i := 1; i <= maxOrigins; i++ {
		seg := fmt.Sprint("s", i)
		if n := gb.number(seg); int(n) != i || gb.number(seg) != n {
			t.Fatalf("segment %q numbered %d, then %d; want %d", seg, n, gb.number(seg), i)
		}
	}
	if n := gb.number("one more"); n != 0 || len(gb.origins) != maxOrigins {
		t.Fatalf("segment past the bound numbered %d, table holds %d; want 0, %d", n, len(gb.origins), maxOrigins)
	}
}
