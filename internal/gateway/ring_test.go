package gateway

import (
	"testing"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/sim"
)

// TestRingTopologyNoLoopStorm closes three segments into a ring of
// bridges forwarding in both directions and proves the exclusion lists make it
// storm-free: one publication yields exactly one delivery per segment
// and a bounded number of bus frames, instead of copies circulating
// forever.
//
// Topology (4 nodes per segment; nodes 2 and 3 host gateway endpoints):
//
//	A ── G1 ── B
//	 \         |
//	  G3       G2
//	   \       |
//	    ────  C
//
// Each bridge end excludes, on its segment, the other bridge's endpoint
// TxNode there — so only locally originated events are ever
// forwarded off a segment.
func TestRingTopologyNoLoopStorm(t *testing.T) {
	const subj binding.Subject = 0x7A
	k := sim.NewKernel(11)
	newSeg := func() *core.System {
		s, err := core.NewSystem(core.SystemConfig{Nodes: 4, Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	segA, segB, segC := newSeg(), newSeg(), newSeg()

	join := func(a, b *core.Middleware, segA, segB string) [2]*RemoteBridge {
		ga, gb, err := Join(a, b, segA, segB, 50*sim.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		return [2]*RemoteBridge{ga, gb}
	}
	g1 := join(segA.Node(2).MW, segB.Node(2).MW, "A", "B") // A↔B
	g2 := join(segB.Node(3).MW, segC.Node(2).MW, "B", "C") // B↔C
	g3 := join(segC.Node(3).MW, segA.Node(3).MW, "C", "A") // C↔A

	tx := func(s *core.System, n int) can.TxNode { return s.Node(n).Ctrl.Node() }
	g1[0].Exclude = []can.TxNode{tx(segA, 3)} // ignore G3's injections on A
	g1[1].Exclude = []can.TxNode{tx(segB, 3)} // ignore G2's injections on B
	g2[0].Exclude = []can.TxNode{tx(segB, 2)} // ignore G1's injections on B
	g2[1].Exclude = []can.TxNode{tx(segC, 3)} // ignore G3's injections on C
	g3[0].Exclude = []can.TxNode{tx(segC, 2)} // ignore G2's injections on C
	g3[1].Exclude = []can.TxNode{tx(segA, 2)} // ignore G1's injections on A

	for _, g := range [][2]*RemoteBridge{g1, g2, g3} {
		if err := forwardSRT(g[0], g[1], subj); err != nil {
			t.Fatal(err)
		}
		if err := forwardSRT(g[1], g[0], subj); err != nil {
			t.Fatal(err)
		}
	}

	pub, _ := segA.Node(0).MW.SRTEC(subj)
	if err := pub.Announce(core.ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	counts := map[string]*int{}
	subscribe := func(name string, s *core.System) {
		n := new(int)
		counts[name] = n
		ch, _ := s.Node(1).MW.SRTEC(subj)
		ch.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
			func(core.Event, core.DeliveryInfo) { *n++ }, nil)
	}
	subscribe("A", segA)
	subscribe("B", segB)
	subscribe("C", segC)

	const pubs = 5
	for i := 0; i < pubs; i++ {
		at := sim.Time(i+1) * 20 * sim.Millisecond
		k.At(at, func() {
			now := segA.Node(0).MW.LocalTime()
			pub.Publish(core.Event{Subject: subj, Payload: []byte{0x5A},
				Attrs: core.EventAttrs{Deadline: now + 5*sim.Millisecond}})
		})
	}
	// Run far past the last publication: a loop storm would keep the
	// buses busy indefinitely and inflate every counter below.
	k.Run(2 * sim.Second)

	for name, n := range counts {
		if *n != pubs {
			t.Errorf("segment %s deliveries = %d, want %d (ring must neither storm nor drop)", name, *n, pubs)
		}
	}
	// A's events reach B via G1 and C via G3; nothing circulates onward.
	if got := forwarded(g1[0], g1[1], g2[0], g2[1], g3[0], g3[1]); got != 2*pubs {
		t.Errorf("total ring forwards = %d, want %d", got, 2*pubs)
	}
	// Bounded bus activity: each publication is 1 frame on A (original) +
	// 1 on B + 1 on C (forwarded) + 1 more on A (G3's C→A copy of ...
	// nothing: G3 ignores G2's injections, so A carries only originals
	// plus nothing forwarded back). Allow generous slack for binding
	// chatter but rule out a storm (which would be thousands of frames).
	total := segA.Bus.Stats().FramesOK + segB.Bus.Stats().FramesOK + segC.Bus.Stats().FramesOK
	if total > uint64(pubs*10) {
		t.Errorf("ring carried %d frames for %d publications — loop storm", total, pubs)
	}
}
