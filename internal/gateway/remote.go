package gateway

import (
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
	// Payload is the event content.
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
	Send(RemoteEvent) error
	// SetReceiver installs the callback for events arriving from the
	// peer. The transport must invoke it in kernel context.
	SetReceiver(func(RemoteEvent))
}

// RemoteBridge attaches one middleware endpoint to a Remote transport,
// federating its segment with a peer segment that runs on a different
// kernel (typically a different process, connected over TCP by
// internal/relay). For every forwarded subject it subscribes locally and
// ships matching events to the peer; events arriving from the peer are
// republished locally under the bridge's own TxNode with the origin
// trace adopted, so one trace spans every segment the event visits.
type RemoteBridge struct {
	// M is the bridge's middleware endpoint on the local segment.
	M *core.Middleware
	// R is the inter-segment transport.
	R Remote
	// Segment names the local segment (must be unique across the
	// federation; used as the loop guard).
	Segment string
	// MaxHops bounds relay traversals; events arriving with
	// Hops >= MaxHops are dropped (defence in depth behind the
	// OriginSeg guard). Zero selects the default of 8.
	MaxHops int
	// Budget is the total relay-deadline budget granted to locally
	// originated events when they leave the segment. Zero selects the
	// default of 50ms.
	Budget sim.Duration
	// RelayDeadline caps the per-hop transmission deadline assigned to a
	// republished SRT copy. Zero selects the default of 10ms.
	RelayDeadline sim.Duration

	// transit remembers, per trace ID, the metadata of events that
	// arrived from the peer and were republished locally, so a sibling
	// bridge on a transit segment can forward them onward with the
	// origin preserved and the budget debited. Entries are dropped once
	// consumed or when the table exceeds transitCap (oldest first).
	transit      map[uint64]transitEntry
	transitOrder []uint64

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

type transitEntry struct {
	ev        RemoteEvent
	arrivedAt sim.Time
}

// transitCap bounds the transit table of a bridge; beyond it the oldest
// entries are evicted (their onward forwarding then restarts metadata,
// which is safe: the OriginSeg guard still holds via the fresh origin).
const transitCap = 4096

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
		M: m, R: r, Segment: segment,
		MaxHops:       8,
		Budget:        50 * sim.Millisecond,
		RelayDeadline: 10 * sim.Millisecond,
		transit:       make(map[uint64]transitEntry),
		subjects:      make(map[binding.Subject]core.Class),
		egress:        make(map[binding.Subject]egressChannel),
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
	ch, err := b.M.Channel(class, subject)
	if err != nil {
		return err
	}
	err = ch.Subscribe(attrs,
		core.SubscribeAttrs{
			// Never echo back what this bridge itself republished.
			ExcludePublishers: []can.TxNode{b.M.Node().Ctrl.Node()},
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
	ch, err := b.M.Channel(class, subject)
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
// transit metadata for events that arrived through a sibling bridge.
func (b *RemoteBridge) ship(class core.Class, subject binding.Subject, ev core.Event, di core.DeliveryInfo) {
	now := b.M.K.Now()
	re := RemoteEvent{
		Class:     class,
		Subject:   subject,
		Payload:   ev.Payload,
		Origin:    di.Publisher,
		OriginSeg: b.Segment,
		Hops:      0,
		Budget:    b.Budget,
		TraceID:   ev.TraceID(),
	}
	if t, ok := b.lookupTransit(ev.TraceID()); ok {
		// Transit traffic: keep the origin, debit the residence time on
		// this segment from the remaining budget.
		re.Origin = t.ev.Origin
		re.OriginSeg = t.ev.OriginSeg
		re.Hops = t.ev.Hops
		re.Budget = t.ev.Budget - sim.Duration(now-t.arrivedAt)
	}
	if re.Budget <= 0 {
		switch class {
		case core.HRT:
			// HRT is never silently dropped: forward late, count it.
			b.late++
			b.observer().Emit(re.TraceID, obs.StageRelayLate, class.String(),
				b.M.Node().Index, uint64(subject), now, "budget exhausted")
		default:
			b.dropped++
			b.observer().Emit(re.TraceID, obs.StageRelayDrop, class.String(),
				b.M.Node().Index, uint64(subject), now, "budget exhausted")
			return
		}
	}
	if err := b.R.Send(re); err != nil {
		b.dropped++
		b.observer().Emit(re.TraceID, obs.StageRelayDrop, class.String(),
			b.M.Node().Index, uint64(subject), now, "send: "+err.Error())
		return
	}
	b.forwarded++
	if o := b.observer(); o.Enabled() {
		o.Emit(re.TraceID, obs.StageRelayTx, class.String(),
			b.M.Node().Index, uint64(subject), now,
			fmt.Sprintf("hop %d budget %v", re.Hops, re.Budget))
	}
}

// receive handles one event arriving from the peer (kernel context). It
// applies the loop and hop guards, records transit metadata and
// republishes the event locally under the bridge's TxNode with the
// origin trace adopted.
func (b *RemoteBridge) receive(re RemoteEvent) {
	now := b.M.K.Now()
	maxHops := b.MaxHops
	if maxHops <= 0 {
		maxHops = 8
	}
	switch {
	case re.OriginSeg == b.Segment:
		b.dropped++
		b.observer().Emit(re.TraceID, obs.StageRelayDrop, re.Class.String(),
			b.M.Node().Index, uint64(re.Subject), now, "loop: returned to origin segment")
		return
	case re.Hops+1 >= maxHops:
		b.dropped++
		b.observer().Emit(re.TraceID, obs.StageRelayDrop, re.Class.String(),
			b.M.Node().Index, uint64(re.Subject), now, "hop limit")
		return
	}
	re.Hops++
	if o := b.observer(); o.Enabled() {
		o.Emit(re.TraceID, obs.StageRelayRx, re.Class.String(),
			b.M.Node().Index, uint64(re.Subject), now,
			fmt.Sprintf("from %s hop %d budget %v", re.OriginSeg, re.Hops, re.Budget))
	}
	b.rememberTransit(re, now)

	ev := core.Event{Subject: re.Subject, Payload: re.Payload}
	if re.Class == core.SRT {
		local := b.M.LocalTime()
		dl := b.RelayDeadline
		if dl <= 0 {
			dl = 10 * sim.Millisecond
		}
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
		b.observer().Emit(re.TraceID, obs.StageRelayDrop, re.Class.String(),
			b.M.Node().Index, uint64(re.Subject), now, "republish: "+err.Error())
		return
	}
	b.received++
}

// rememberTransit records incoming federation metadata for this bridge
// and its siblings, so onward forwarding preserves origin and budget.
func (b *RemoteBridge) rememberTransit(re RemoteEvent, at sim.Time) {
	if re.TraceID == 0 {
		return
	}
	put := func(rb *RemoteBridge) {
		if _, exists := rb.transit[re.TraceID]; !exists {
			rb.transitOrder = append(rb.transitOrder, re.TraceID)
		}
		rb.transit[re.TraceID] = transitEntry{ev: re, arrivedAt: at}
		for len(rb.transitOrder) > transitCap {
			evict := rb.transitOrder[0]
			rb.transitOrder = rb.transitOrder[1:]
			delete(rb.transit, evict)
		}
	}
	put(b)
	for _, s := range b.siblingsFwd {
		put(s)
	}
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
func (b *RemoteBridge) observer() *obs.Observer { return b.M.Obs }
