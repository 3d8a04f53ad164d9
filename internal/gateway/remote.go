package gateway

import (
	"bytes"
	"errors"
	"fmt"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
)

// RemoteEvent is the unit of federation: one event crossing from a bus
// segment onto an inter-segment transport. It carries everything the CAN
// wire cannot — the origin publisher and segment, the hop count and the
// remaining relay-deadline budget — so that multi-hop forwarding keeps
// end-to-end semantics without any global coordinator. On a transit
// segment the same fields ride the republished event as its federation
// header (can.Origin), the budget as the instant it runs out.
type RemoteEvent struct {
	// Class is the event channel class (core.HRT/SRT/NRT).
	Class core.Class
	// Subject is the 56-bit channel subject (identical on all segments).
	Subject binding.Subject
	// Payload is the event content. A RemoteBridge ships its own private
	// copy, clipped to its length and capacity so that an append
	// reallocates: a transport may keep it but must not write into it.
	Payload []byte
	// Origin is the TxNode of the original publisher on the origin
	// segment. Remote peers use it for origin filtering (§2.2.1's
	// "events generated on this field bus" applied across the federation).
	Origin can.TxNode
	// OriginSeg names the segment the event was first published on. A
	// bridge drops incoming events whose OriginSeg matches its own
	// segment: the federation-level loop guard.
	OriginSeg string
	// Hops counts relay traversals so far (0 = first hop).
	Hops int
	// Budget is the remaining relay-deadline budget in virtual
	// nanoseconds. Each bridge debits the event's residence time on its
	// segment before forwarding; SRT events with an exhausted budget are
	// shed, HRT events are forwarded anyway and counted late.
	Budget sim.Duration
	// TraceID is the observability trace opened on the origin segment.
	// Segments use disjoint trace-ID bases, so adopting it downstream
	// yields one continuous trace across the federation.
	TraceID uint64
}

// Remote is a transport able to carry RemoteEvents between this segment
// and a peer (internal/relay implements it over TCP). Send is called in
// simulation-kernel context and must not block; the transport delivers
// incoming events by calling the receiver — also in kernel context (a
// network transport injects into the kernel via sim.Paced.Inject).
type Remote interface {
	// Send enqueues an event toward the peer. A non-nil error means the
	// event was refused outright (link down and class not queueable).
	// The payload is the bridge's private, read-only, capacity-clipped
	// copy: the transport may keep it as long as it likes but must not
	// write into it.
	Send(RemoteEvent) error
	// SetReceiver installs the callback for events arriving from the
	// peer. The transport must invoke it in kernel context.
	SetReceiver(func(RemoteEvent))
}

// RemoteBridge attaches one middleware endpoint to a Remote transport,
// federating its segment with a peer segment: one on a different kernel
// (typically a different process, connected over TCP by internal/relay)
// or, through Join's in-kernel hop, one sharing this kernel. For every
// forwarded subject it subscribes locally and ships matching events to
// the peer; events arriving from the peer are republished locally under
// the bridge's own TxNode with the origin trace adopted, so one trace
// spans every segment the event visits, and with a federation header, so
// a linked sibling forwards the event onward with its origin, hop count
// and remaining budget. The bridge keeps no per-event state: whether
// traced or not, it forwards the same events the same way.
type RemoteBridge struct {
	// Exclude lists publishers on the local segment, beyond the bridge's
	// own endpoint node (always excluded), whose events Forward does not
	// ship. It makes rings of bridges loop-safe: each bridge lists the
	// other gateways' TxNodes on its segment, so only events that
	// originate locally are ever forwarded off it — a copy arriving
	// through one bridge is never re-forwarded by another. Set it before
	// Forward; later changes do not touch established forwarding.
	Exclude []can.TxNode

	m       *core.Middleware // endpoint on the local segment
	r       Remote           // inter-segment transport
	segment string           // local segment name, unique in the federation: the loop guard
	node    can.TxNode       // the TxNode the bridge republishes under

	// slab is the unused rest of the block ship copies payloads into.
	slab []byte

	forwarded uint64
	received  uint64
	dropped   uint64
	late      uint64
	subjects  map[binding.Subject]core.Class
	// egress holds the channel handle Announce opened per subject, so
	// receive republishes without a binding look-up per relayed frame.
	egress map[binding.Subject]egressChannel
	// siblingsFwd are the bridges LinkSiblings linked to this one: ship
	// keeps the federation header only of what they republished.
	siblingsFwd []*RemoteBridge
	// origins names the origin segments of the events this bridge
	// republished; a header's Segment s is origins[s-1].
	origins []string
}

type egressChannel struct {
	class core.Class
	ch    core.Channel
}

// Federation limits. An event arriving with Hops+1 >= maxHops is dropped
// (defence in depth behind the OriginSeg guard); a locally originated
// event leaves with the relay-deadline budget; a republished SRT copy
// gets a transmission deadline of at most relayDeadline, measured from the
// moment it is republished. Deadlines are not carried on the CAN wire,
// so per-segment budgets are assigned at each hop — the standard
// decomposition for multi-network channels.
const (
	maxHops       = 8
	budget        = 50 * sim.Millisecond
	relayDeadline = 10 * sim.Millisecond
)

// maxOrigins bounds the origin segments a bridge numbers in its headers.
const maxOrigins = 255

// Payload copies: ship copies a payload into the bridge's slab, taken
// from the heap slabSize bytes at a time, so a steady stream of small
// events costs no heap object each. A payload above slabMax gets its own
// allocation.
const (
	slabSize = 4 << 10
	slabMax  = 512
)

// NewRemote creates a RemoteBridge and installs its receiver on the
// transport.
func NewRemote(m *core.Middleware, r Remote, segment string) (*RemoteBridge, error) {
	if m == nil {
		return nil, errors.New("gateway: nil middleware endpoint")
	}
	if r == nil {
		return nil, errors.New("gateway: nil remote transport")
	}
	if segment == "" {
		return nil, errors.New("gateway: empty segment name")
	}
	b := &RemoteBridge{
		m: m, r: r, segment: segment, node: m.Node().Ctrl.Node(),
		subjects: make(map[binding.Subject]core.Class),
		egress:   make(map[binding.Subject]egressChannel),
	}
	r.SetReceiver(b.receive)
	return b, nil
}

// Forwarded reports how many events left the segment through this bridge.
func (b *RemoteBridge) Forwarded() uint64 { return b.forwarded }

// Received reports how many events arrived from the peer and were
// republished locally.
func (b *RemoteBridge) Received() uint64 { return b.received }

// Dropped reports events shed at this bridge (loop guard, hop guard,
// exhausted SRT budget, republish failure).
func (b *RemoteBridge) Dropped() uint64 { return b.dropped }

// Late reports HRT events forwarded after their budget was exhausted.
func (b *RemoteBridge) Late() uint64 { return b.late }

// LinkSiblings connects transit bridges on one segment: an event one of
// them receives from its peer and republishes locally will, when
// another's subscription picks it up, be forwarded onward with origin,
// hops and budget preserved. Any other bridge ships the republished
// event as published on this segment. Call it on every bridge of a
// multi-homed segment, passing the others.
func (b *RemoteBridge) LinkSiblings(sibs ...*RemoteBridge) {
	b.siblingsFwd = append(b.siblingsFwd, sibs...)
	for _, s := range sibs {
		s.siblingsFwd = append(s.siblingsFwd, b)
	}
}

// Forward establishes federation of a subject: events of the given class
// published on the local segment (or relayed in by a sibling bridge) are
// shipped to the peer. ChannelAttrs matter for NRT (fragmentation, prio)
// and HRT (payload dimensioning) subjects; pass the zero value for SRT.
func (b *RemoteBridge) Forward(class core.Class, subject binding.Subject, attrs core.ChannelAttrs) error {
	if _, dup := b.subjects[subject]; dup {
		return fmt.Errorf("gateway: subject %d already forwarded", subject)
	}
	ch, err := b.m.Channel(class, subject)
	if err != nil {
		return err
	}
	err = ch.Subscribe(attrs,
		core.SubscribeAttrs{
			// Never echo back what this bridge itself republished, nor
			// what a sibling gateway relayed in (ring safety).
			ExcludePublishers: append([]can.TxNode{b.node}, b.Exclude...),
		},
		func(ev core.Event, di core.DeliveryInfo) { b.ship(class, subject, ev, di) }, nil)
	if err != nil {
		return err
	}
	b.subjects[subject] = class
	return nil
}

// Announce prepares the local egress side of a federated subject: the
// channel the bridge republishes incoming remote events on. Call it once
// per subject expected FROM the peer (the mirror of the peer's Forward).
func (b *RemoteBridge) Announce(class core.Class, subject binding.Subject, attrs core.ChannelAttrs) error {
	ch, err := b.m.Channel(class, subject)
	if err != nil {
		return err
	}
	if err := ch.Announce(attrs, nil); err != nil {
		return err
	}
	b.egress[subject] = egressChannel{class: class, ch: ch}
	return nil
}

// ship sends one locally delivered event to the peer, minting fresh
// federation metadata for locally originated events and keeping the
// federation header of events a sibling bridge republished. The
// delivered payload is the channel mailbox's, and a transport may queue
// the event, so the RemoteEvent carries its own copy (see own).
func (b *RemoteBridge) ship(class core.Class, subject binding.Subject, ev core.Event, di core.DeliveryInfo) {
	now := b.m.K.Now()
	re := RemoteEvent{
		Class:     class,
		Subject:   subject,
		Payload:   ev.Payload,
		Origin:    di.Publisher,
		OriginSeg: b.segment,
		Budget:    budget,
		TraceID:   ev.TraceID(),
	}
	if o := di.Origin; o.Segment != 0 {
		for _, s := range b.siblingsFwd {
			if s.node == di.Publisher {
				// Transit traffic: keep the origin; what is left of the
				// budget is what the residence on this segment did not use.
				re.Origin, re.OriginSeg, re.Hops = o.Node, s.origins[o.Segment-1], int(o.Hops)
				re.Budget = o.End - now
				break
			}
		}
	}
	if re.Budget <= 0 {
		switch class {
		case core.HRT:
			// HRT is never silently dropped: forward late, count it.
			b.late++
			b.observer().Emit(re.TraceID, obs.StageRelayLate, class.Obs(),
				b.m.Node().Index, uint64(subject), now, obs.DetailBudgetExhausted)
		default:
			b.dropped++
			b.observer().Emit(re.TraceID, obs.StageRelayDrop, class.Obs(),
				b.m.Node().Index, uint64(subject), now, obs.DetailBudgetExhausted)
			return
		}
	}
	re.Payload = b.own(re.Payload)
	if err := b.r.Send(re); err != nil {
		b.dropped++
		if o := b.observer(); o.Enabled() {
			o.Emit(re.TraceID, obs.StageRelayDrop, class.Obs(),
				b.m.Node().Index, uint64(subject), now, obs.Text("send: "+err.Error()))
		}
		return
	}
	b.forwarded++
	if o := b.observer(); o.Enabled() {
		o.Emit(re.TraceID, obs.StageRelayTx, class.Obs(),
			b.m.Node().Index, uint64(subject), now,
			obs.RelayHop(re.Hops, re.Budget))
	}
}

// receive handles one event arriving from the peer (kernel context). It
// applies the loop and hop guards and republishes the event locally
// under the bridge's TxNode, with the origin trace adopted and the
// federation header attached: origin, hops and the instant the budget
// runs out.
func (b *RemoteBridge) receive(re RemoteEvent) {
	now := b.m.K.Now()
	switch {
	case re.OriginSeg == b.segment:
		b.dropped++
		b.observer().Emit(re.TraceID, obs.StageRelayDrop, re.Class.Obs(),
			b.m.Node().Index, uint64(re.Subject), now, obs.DetailLoop)
		return
	case re.Hops+1 >= maxHops:
		b.dropped++
		b.observer().Emit(re.TraceID, obs.StageRelayDrop, re.Class.Obs(),
			b.m.Node().Index, uint64(re.Subject), now, obs.DetailHopLimit)
		return
	}
	re.Hops++
	if o := b.observer(); o.Enabled() {
		o.Emit(re.TraceID, obs.StageRelayRx, re.Class.Obs(),
			b.m.Node().Index, uint64(re.Subject), now,
			obs.RelayFrom(re.OriginSeg, re.Hops, re.Budget))
	}
	ev := core.WithOrigin(core.Event{Subject: re.Subject, Payload: re.Payload},
		can.Origin{End: now + re.Budget, Segment: b.number(re.OriginSeg), Node: re.Origin, Hops: uint8(re.Hops)})
	if re.Class == core.SRT {
		local := b.m.LocalTime()
		dl := relayDeadline
		if re.Budget > 0 && re.Budget < dl {
			dl = re.Budget
		}
		ev.Attrs = core.EventAttrs{Deadline: local + dl, Expiration: local + 2*dl}
	}
	var err error
	switch out, ok := b.egress[re.Subject]; {
	case !ok:
		err = core.ErrNotAnnounced
	case out.class != re.Class:
		err = core.ErrClassMismatch
	default:
		err = out.ch.Publish(core.WithTraceID(ev, re.TraceID))
	}
	if err != nil {
		b.dropped++
		if o := b.observer(); o.Enabled() {
			o.Emit(re.TraceID, obs.StageRelayDrop, re.Class.Obs(),
				b.m.Node().Index, uint64(re.Subject), now, obs.Text("republish: "+err.Error()))
		}
		return
	}
	b.received++
}

// own returns the bridge's private copy of p. A payload of at most
// slabMax bytes is copied into the slab and handed out as a view clipped
// to its length and capacity, so no holder's append can reach a
// neighbour's bytes; the slab is replaced when too little of it is left.
// A queued copy keeps its whole slab reachable, at most slabSize bytes.
func (b *RemoteBridge) own(p []byte) []byte {
	n := len(p)
	if n == 0 || n > slabMax {
		return bytes.Clone(p)
	}
	if len(b.slab) < n {
		b.slab = make([]byte, slabSize)
	}
	c := b.slab[:n:n]
	copy(c, p)
	b.slab = b.slab[n:]
	return c
}

// number returns the header number of origin segment seg, adding it to
// origins when new. Past maxOrigins segments it returns 0, no header: the
// event then travels onward as published on this segment, which the
// loop guard still covers.
func (b *RemoteBridge) number(seg string) uint8 {
	for i, s := range b.origins {
		if s == seg {
			return uint8(i + 1)
		}
	}
	if len(b.origins) == maxOrigins {
		return 0
	}
	b.origins = append(b.origins, seg)
	return uint8(len(b.origins))
}

// observer returns the endpoint middleware's observer (nil-safe).
func (b *RemoteBridge) observer() *obs.Observer { return b.m.Obs }
