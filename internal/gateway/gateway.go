// Package gateway bridges event channels across bus segments. The paper
// assumes "publishers and subscribers are connected by a channel which
// spans multiple networks, e.g. a field bus, a wireless network and a
// wired wide area network" (§2.2.1, elaborated in its ref [12] — the
// CAN↔Internet architecture), and uses origin attributes so a subscriber
// can restrict notifications to events generated on its own segment.
//
// One gateway implements the forwarding: a RemoteBridge on each segment,
// joined by a Remote transport. Segments on separate kernels use a
// network transport (internal/relay); segments that share a kernel are
// joined by Join over an in-kernel hop.
package gateway

import (
	"errors"
	"fmt"

	"canec/internal/core"
	"canec/internal/sim"
)

// Join bridges two segments that share one simulation kernel: a
// RemoteBridge on each endpoint, connected by an in-kernel hop that hands
// every event to the other end delay (the store-and-forward latency)
// after it left. segA and segB name the segments for the loop guard. A
// subject crosses once the receiving end Announces it and the sending end
// Forwards it. A forwarded copy carries the receiving end's TxNode, so
// origin filtering there is the ordinary publisher filter (§2.2.1).
func Join(a, b *core.Middleware, segA, segB string, delay sim.Duration) (*RemoteBridge, *RemoteBridge, error) {
	if a == nil || b == nil {
		return nil, nil, errors.New("gateway: nil endpoint")
	}
	if a.K != b.K {
		return nil, nil, errors.New("gateway: endpoints on different kernels (federate separate kernels over a relay transport)")
	}
	if segA == segB {
		return nil, nil, fmt.Errorf("gateway: both ends named %q (the loop guard would drop every event)", segA)
	}
	ha := &hop{k: a.K, delay: delay}
	hb := &hop{k: a.K, delay: delay, peer: ha}
	ha.peer = hb
	ha.deliverFn, hb.deliverFn = ha.deliver, hb.deliver
	ga, err := NewRemote(a, ha, segA)
	if err != nil {
		return nil, nil, err
	}
	gb, err := NewRemote(b, hb, segB)
	if err != nil {
		return nil, nil, err
	}
	return ga, gb, nil
}

// hop is one end of Join's in-kernel Remote: it hands each sent event
// to the peer end's receiver a fixed virtual delay later. The delay is
// constant, so a FIFO and one pre-bound callback suffice — no per-event
// closure.
type hop struct {
	k         *sim.Kernel
	delay     sim.Duration
	peer      *hop
	recv      func(RemoteEvent)
	q         []RemoteEvent
	head      int
	deliverFn func()
}

func (h *hop) SetReceiver(fn func(RemoteEvent)) { h.recv = fn }

func (h *hop) Send(re RemoteEvent) error {
	h.q = append(h.q, re)
	h.k.After(h.delay, h.deliverFn)
	return nil
}

func (h *hop) deliver() {
	re := h.q[h.head]
	h.q[h.head] = RemoteEvent{}
	if h.head++; h.head == len(h.q) {
		h.q, h.head = h.q[:0], 0
	}
	h.peer.recv(re)
}
