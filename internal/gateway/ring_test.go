package gateway

import (
	"testing"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
)

const ringSubject binding.Subject = 0x7A

// ring closes three 4-node segments into a ring of bridges forwarding
// ringSubject in both directions:
//
//	A ── G1 ── B
//	 \         |
//	  G3       G2
//	   \       |
//	    ────  C
//
// Nodes 2 and 3 host the gateway endpoints. Each bridge end excludes, on
// its segment, the other bridge's endpoint TxNode there — so only
// locally originated events are ever forwarded off a segment.
func ring(t *testing.T, k *sim.Kernel, observe func(seg int) *obs.Config) ([]*core.System, [3][2]*RemoteBridge) {
	t.Helper()
	segA, segB, segC := segment(t, k, 4, observe(0)), segment(t, k, 4, observe(1)), segment(t, k, 4, observe(2))

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

	gs := [3][2]*RemoteBridge{g1, g2, g3}
	for _, g := range gs {
		if err := forwardSRT(g[0], g[1], ringSubject); err != nil {
			t.Fatal(err)
		}
		if err := forwardSRT(g[1], g[0], ringSubject); err != nil {
			t.Fatal(err)
		}
	}
	return []*core.System{segA, segB, segC}, gs
}

// TestRingTopologyNoLoopStorm proves the exclusion lists make the ring
// storm-free: one publication yields exactly one delivery per segment
// and a bounded number of bus frames, instead of copies circulating
// forever.
func TestRingTopologyNoLoopStorm(t *testing.T) {
	k := sim.NewKernel(11)
	segs, gs := ring(t, k, func(int) *obs.Config { return nil })
	// drive runs far past the last publication: a loop storm would keep
	// the buses busy indefinitely and inflate every counter below.
	out := drive(t, k, segs, ringSubject)
	const pubs = 5
	for i, got := range out.delivered {
		if len(got) != pubs {
			t.Errorf("segment %d deliveries = %d, want %d (ring must neither storm nor drop)", i, len(got), pubs)
		}
	}
	// A's events reach B via G1 and C via G3; nothing circulates onward.
	if got := forwarded(gs[0][0], gs[0][1], gs[1][0], gs[1][1], gs[2][0], gs[2][1]); got != 2*pubs {
		t.Errorf("total ring forwards = %d, want %d", got, 2*pubs)
	}
	// Bounded bus activity: each publication is 1 frame on A (original) +
	// 1 on B + 1 on C (forwarded) + 1 more on A (G3's C→A copy of ...
	// nothing: G3 ignores G2's injections, so A carries only originals
	// plus nothing forwarded back). Allow generous slack for binding
	// chatter but rule out a storm (which would be thousands of frames).
	var total uint64
	for _, s := range segs {
		total += s.Bus.Stats().FramesOK
	}
	if total > uint64(pubs*10) {
		t.Errorf("ring carried %d frames for %d publications — loop storm", total, pubs)
	}
}
