// Package gateway bridges event channels across bus segments. The paper
// assumes "publishers and subscribers are connected by a channel which
// spans multiple networks, e.g. a field bus, a wireless network and a
// wired wide area network" (§2.2.1, elaborated in its ref [12] — the
// CAN↔Internet architecture), and uses origin attributes so a subscriber
// can restrict notifications to events generated on its own segment.
package gateway

import (
	"errors"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/sim"
)

// Bridge owns one middleware instance on each of two segments that
// share a simulation kernel. For every forwarded subject it subscribes on
// one side and republishes on the other under its own TxNode, after a
// configurable relay latency. Because forwarded events carry the
// gateway's node number, origin filtering on the remote segment is the
// ordinary publisher filter: subscribers exclude (or select) the
// gateway's TxNode — exactly the mechanism §2.2.1 describes.
type Bridge struct {
	// A and B are the gateway's middleware endpoints on the two segments.
	A, B *core.Middleware
	// Delay is the store-and-forward latency added per hop (protocol
	// conversion, queueing in the gateway CPU).
	Delay sim.Duration
	// RelayDeadline is the transmission deadline budget given to the
	// re-published copy of an SRT event on the remote segment, measured
	// from the moment the gateway forwards it. Deadlines are not carried
	// on the CAN wire, so per-segment budgets are assigned at each hop —
	// the standard decomposition for multi-network channels.
	RelayDeadline sim.Duration

	// ExcludeA and ExcludeB list additional publisher TxNodes the bridge
	// ignores on the respective ingress segment, beyond its own endpoint
	// node (which is always excluded). They make multi-bridge topologies
	// loop-safe: in a ring of Both-direction bridges, each bridge lists
	// the other gateways' TxNodes on its segments, so only events that
	// originate locally on a segment are ever forwarded off it — a copy
	// arriving through one bridge can never be re-forwarded by another.
	// Set them before any ForwardSRT call; later changes have no effect on
	// established forwarding.
	ExcludeA, ExcludeB []can.TxNode

	forwarded uint64
	dropped   uint64
}

// Direction selects which way a subject flows through the bridge.
type Direction int

const (
	// AtoB forwards events published on segment A to segment B.
	AtoB Direction = iota
	// BtoA forwards events published on segment B to segment A.
	BtoA
	// Both forwards in both directions (loop-safe: the gateway never
	// re-forwards events it injected itself).
	Both
)

// New creates a bridge between two middleware endpoints that must live on
// the same simulation kernel (segments that do not share a kernel are
// federated over a Remote transport instead; see RemoteBridge).
func New(a, b *core.Middleware, delay sim.Duration) (*Bridge, error) {
	if a == nil || b == nil {
		return nil, errors.New("gateway: nil endpoint")
	}
	if a.K != b.K {
		return nil, errors.New("gateway: endpoints on different kernels (use RemoteBridge to federate separate kernels)")
	}
	return &Bridge{A: a, B: b, Delay: delay, RelayDeadline: 10 * sim.Millisecond}, nil
}

// ingressExcludes returns the publishers to ignore when subscribing on
// `from`: the bridge's own endpoint node there plus the configured
// per-side exclusion list.
func (g *Bridge) ingressExcludes(from *core.Middleware) []can.TxNode {
	extra := g.ExcludeA
	if from == g.B {
		extra = g.ExcludeB
	}
	ex := make([]can.TxNode, 0, len(extra)+1)
	ex = append(ex, from.Node().Ctrl.Node())
	ex = append(ex, extra...)
	return ex
}

// Forwarded reports how many events crossed the bridge.
func (g *Bridge) Forwarded() uint64 { return g.forwarded }

// Dropped reports forwarding failures (republish errors).
func (g *Bridge) Dropped() uint64 { return g.dropped }

// ForwardSRT establishes bidirectional (or one-way) forwarding of a soft
// real-time subject.
func (g *Bridge) ForwardSRT(subject binding.Subject, dir Direction) error {
	if dir == AtoB || dir == Both {
		if err := g.forwardOne(g.A, g.B, subject); err != nil {
			return err
		}
	}
	if dir == BtoA || dir == Both {
		if err := g.forwardOne(g.B, g.A, subject); err != nil {
			return err
		}
	}
	return nil
}

// forwardOne announces the subject on `to`, subscribes on `from` and
// republishes every delivery after the store-and-forward delay, keeping
// the origin trace. Each copy gets a fresh per-segment deadline budget.
func (g *Bridge) forwardOne(from, to *core.Middleware, subject binding.Subject) error {
	out, err := to.SRTEC(subject)
	if err != nil {
		return err
	}
	if err := out.Announce(core.ChannelAttrs{}, nil); err != nil {
		return err
	}
	in, err := from.SRTEC(subject)
	if err != nil {
		return err
	}
	return in.Subscribe(core.ChannelAttrs{},
		core.SubscribeAttrs{
			// Never re-forward what this bridge injected on `from`, nor
			// what a sibling bridge relayed in (ring safety).
			ExcludePublishers: g.ingressExcludes(from),
		},
		func(ev core.Event, _ core.DeliveryInfo) {
			to.K.After(g.Delay, func() {
				now := to.LocalTime()
				cp := core.Event{Subject: subject, Payload: ev.Payload, Attrs: core.EventAttrs{
					Deadline:   now + g.RelayDeadline,
					Expiration: now + 2*g.RelayDeadline,
				}}
				if err := out.Publish(core.WithTraceID(cp, ev.TraceID())); err != nil {
					g.dropped++
					return
				}
				g.forwarded++
			})
		}, nil)
}
