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
// end-to-end semantics without any global coordinator.
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
// spans every segment the event visits.
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

	// transit remembers, per trace ID, the metadata of events a sibling
	// bridge received from its peer and republished on this segment, so
	// this bridge forwards them onward with the origin preserved and the
	// budget debited. Entries are dropped once consumed or, oldest first,
	// when transitCap newer ones arrived. transitOrder holds the IDs in
	// arrival order: appended to until it holds transitCap, then a ring
	// whose oldest ID is at transitHead.
	transit      map[uint64]transitEntry
	transitOrder []uint64
	transitHead  int

	// slab is the unused rest of the block ship copies payloads into.
	slab []byte

	forwarded uint64
	received  uint64
	dropped   uint64
	late      uint64
	subjects  map[binding.Subject]core.Class
	// egress holds the channel handle Announce opened per subject, so
	// receive republishes without a binding look-up per relayed frame.
	egress      map[binding.Subject]egressChannel
	siblingsFwd []*RemoteBridge
}

type egressChannel struct {
	class core.Class
	ch    core.Channel
}

// transitEntry is the federation metadata of one event in transit: the
// RemoteEvent fields onward forwarding preserves, and when it arrived.
// It holds no payload, which would keep a slab reachable for as long as
// the entry goes unconsumed.
type transitEntry struct {
	origin    can.TxNode
	originSeg string
	hops      int
	budget    sim.Duration
	arrivedAt sim.Time
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

// transitCap bounds the transit table of a bridge; beyond it the oldest
// entries are evicted (their onward forwarding then restarts metadata,
// which is safe: the OriginSeg guard still holds via the fresh origin).
const transitCap = 4096

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
		m: m, r: r, segment: segment,
		transit:  make(map[uint64]transitEntry),
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

// LinkSiblings connects transit bridges on one segment: an event this
// bridge receives from its peer and republishes locally will, when a
// sibling's subscription picks it up, be forwarded onward with origin,
// hops and budget preserved. Call it on every bridge of a multi-homed
// segment, passing the others.
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
			ExcludePublishers: append([]can.TxNode{b.m.Node().Ctrl.Node()}, b.Exclude...),
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
// federation metadata for locally originated events and preserving the
// transit metadata for events that arrived through a sibling bridge. The
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
		Hops:      0,
		Budget:    budget,
		TraceID:   ev.TraceID(),
	}
	if t, ok := b.lookupTransit(ev.TraceID()); ok {
		// Transit traffic: keep the origin, debit the residence time on
		// this segment from the remaining budget.
		re.Origin = t.origin
		re.OriginSeg = t.originSeg
		re.Hops = t.hops
		re.Budget = t.budget - sim.Duration(now-t.arrivedAt)
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
// applies the loop and hop guards, records transit metadata and
// republishes the event locally under the bridge's TxNode with the
// origin trace adopted.
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
	b.rememberTransit(re, now)

	ev := core.Event{Subject: re.Subject, Payload: re.Payload}
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

// rememberTransit records incoming federation metadata for the bridge's
// siblings, so their onward forwarding preserves origin and budget. The
// bridge itself keeps no entry, since it would never read one: it
// republishes every received event under its own TxNode, its Forward
// subscriptions exclude that TxNode, so its ship never sees the event
// and its lookupTransit never asks for the trace ID.
func (b *RemoteBridge) rememberTransit(re RemoteEvent, at sim.Time) {
	if re.TraceID == 0 {
		return
	}
	t := transitEntry{origin: re.Origin, originSeg: re.OriginSeg, hops: re.Hops,
		budget: re.Budget, arrivedAt: at}
	for _, s := range b.siblingsFwd {
		s.putTransit(re.TraceID, t)
	}
}

// putTransit records a transit entry. A new trace ID past transitCap
// overwrites the oldest in the ring and evicts its entry, if that was
// not consumed yet, so the table never holds more than transitCap.
func (b *RemoteBridge) putTransit(id uint64, t transitEntry) {
	if _, exists := b.transit[id]; !exists {
		if len(b.transitOrder) < transitCap {
			b.transitOrder = append(b.transitOrder, id)
		} else {
			delete(b.transit, b.transitOrder[b.transitHead])
			b.transitOrder[b.transitHead] = id
			b.transitHead = (b.transitHead + 1) % transitCap
		}
	}
	b.transit[id] = t
}

// lookupTransit consumes the transit entry for a trace ID, if present.
func (b *RemoteBridge) lookupTransit(id uint64) (transitEntry, bool) {
	if id == 0 {
		return transitEntry{}, false
	}
	t, ok := b.transit[id]
	if ok {
		delete(b.transit, id)
	}
	return t, ok
}

// observer returns the endpoint middleware's observer (nil-safe).
func (b *RemoteBridge) observer() *obs.Observer { return b.m.Obs }
