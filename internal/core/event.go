// Package core implements the paper's event channel middleware: the
// publisher/subscriber programming model of §2 (events, event channels,
// notification and exception handlers) and the mapping of the three
// channel classes — hard real-time (HRTEC), soft real-time (SRTEC) and
// non real-time (NRTEC) — onto the CAN-Bus mechanisms described in §3.
//
// Every node runs a Middleware instance that owns the node's CAN
// controller, its synchronized local clock, the binding table and the
// per-channel state. All channel operations mirror the paper's API
// (Fig. 1 and Fig. 2): Announce, Publish, Subscribe, CancelSubscription,
// CancelPublication.
package core

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/obs"
	"canec/internal/sim"
)

// Class is the timeliness/reliability class of an event channel (§2.2).
type Class int

const (
	// HRT channels offer guaranteed latency and bounded jitter under the
	// configured fault assumption, via slot reservations.
	HRT Class = iota
	// SRT channels schedule events by transmission deadline (EDF over CAN
	// priorities); deadlines can be missed under overload, with local
	// exceptions raised for awareness.
	SRT
	// NRT channels carry best-effort traffic on fixed low priorities and
	// support fragmentation of bulk payloads.
	NRT
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case HRT:
		return "HRT"
	case SRT:
		return "SRT"
	case NRT:
		return "NRT"
	}
	return "?"
}

// Obs is the class as the observability layer names it (0 for an
// invalid class).
func (c Class) Obs() obs.Class {
	if c < 0 || int(c) >= len(obsClass) {
		return 0
	}
	return obsClass[c]
}

var obsClass = [...]obs.Class{HRT: obs.ClassHRT, SRT: obs.ClassSRT, NRT: obs.ClassNRT}

// EventAttrs are the per-event attributes of §2: quality attributes
// (deadline, expiration) plus context. Times are absolute values of the
// publishing node's synchronized local clock.
type EventAttrs struct {
	// Deadline is the transmission deadline of an SRT event: the latest
	// local time by which the message should have been transmitted.
	// Ignored for HRT (the slot defines timing) and NRT events.
	Deadline sim.Time
	// Expiration is the end of the event's temporal validity. An SRT
	// event still queued at this time is removed entirely and the
	// publisher's exception handler is invoked (§2.2.2). Zero disables.
	Expiration sim.Time
	// Timestamp is set by the middleware at publish time (local clock).
	Timestamp sim.Time
}

// Event is an instance of an event type: <subject, attributes, content>.
type Event struct {
	Subject binding.Subject
	Attrs   EventAttrs
	Payload []byte

	// traceID correlates the event across the observability layer's
	// life-cycle stages (0 = untraced); publishedAt is the kernel time of
	// its Publish call; origin is the federation header of an event a
	// gateway republished. All are simulation metadata, not part of the
	// paper's event model, and therefore unexported.
	traceID     uint64
	publishedAt sim.Time
	origin      can.Origin
}

// TraceID returns the event's observability trace identifier (0 when
// untraced). Gateways read it to carry the trace across segments.
func (e Event) TraceID() uint64 { return e.traceID }

// WithTraceID returns a copy of ev carrying a preset trace identifier.
// Publishing such an event continues the existing trace (the observer
// adopts the foreign ID) instead of opening a new one — the mechanism a
// relay uses to keep one continuous trace across bus segments that each
// run their own observer.
func WithTraceID(ev Event, id uint64) Event {
	ev.traceID = id
	return ev
}

// frame returns a frame with the given identifier and payload that
// carries ev's simulation metadata: trace ID, publish instant and
// federation header.
func (ev *Event) frame(id can.ID, data []byte) can.Frame {
	return can.Frame{ID: id, Data: data, Tag: ev.traceID, PublishedAt: ev.publishedAt, Origin: ev.origin}
}

// WithOrigin returns a copy of ev carrying a federation header. Its
// frames carry the header, and every delivery hands it back in
// DeliveryInfo.Origin, so a gateway forwarding the event onward keeps
// its origin, hop count and budget.
func WithOrigin(ev Event, o can.Origin) Event {
	ev.origin = o
	return ev
}

// ChannelAttrs describe an event channel (§2): they abstract the
// properties of the underlying dissemination — class, rates, reliability —
// rather than any single event.
type ChannelAttrs struct {
	// Payload is the dimensioned payload capacity in bytes. HRT channels
	// must match their slot dimensioning (≤ 7: one byte is used by the
	// middleware header); SRT/non-fragmenting NRT are limited to 8.
	Payload int
	// Periodic is descriptive only: the middleware does not read it.
	// Whether the subscriber side detects missing messages and raises
	// SlotMissed is decided by the calendar slot (calendar.Slot.Periodic),
	// whatever this field says. Sporadic slots may be left unused (their
	// bandwidth is reclaimed automatically by lower-priority traffic).
	Periodic bool
	// Prio is the fixed priority of an NRT channel. It must lie inside
	// the configured NRT band; the middleware rigorously enforces
	// P_HRT < P_SRT < P_NRT (§3.3).
	Prio can.Prio
	// Fragmentation enables bulk payloads on an NRT channel (§2.2.3).
	Fragmentation bool
	// QueueCap bounds the publisher-side HRT event queue (events waiting
	// for their slots). Zero selects the default of 8; exceeding the cap
	// raises QueueOverflow.
	QueueCap int
	// Value, if non-nil on an SRT channel, assigns the events a time-value
	// function (Jensen, the paper's ref [11]) used by value-based load
	// shedding: when the node's SRT send queue exceeds
	// Middleware.MaxQueuedSRT, the queued event with the least residual
	// value is removed first. See internal/value for standard shapes.
	Value ValueFunc
	// Period declares the channel's minimum inter-publication interval
	// for probabilistic admission control. SRT/NRT channels on a system
	// with an admission controller must declare it (zero is rejected
	// with the undeclared-rate reason); without a controller it is
	// purely informational.
	Period sim.Duration
	// RelDeadline declares the relative transmission deadline the
	// admission analysis guarantees against. Publish still takes
	// per-event absolute deadlines; RelDeadline is the dimensioning
	// value (typically the tightest deadline the publisher will use).
	RelDeadline sim.Duration
}

// ValueFunc maps lateness (now − deadline; negative while early) to the
// value of completing the transmission. value.Function satisfies it.
type ValueFunc interface {
	At(lateness sim.Duration) float64
}

// SubscribeAttrs carry subscriber-side filtering (§2.2.1): attributes
// checked by the local middleware after the controller's etag filter has
// already discarded foreign subjects.
type SubscribeAttrs struct {
	// Publishers restricts notification to events sent by the listed
	// nodes (nil accepts all). This models the paper's example of
	// filtering by origin network segment.
	Publishers []can.TxNode
	// ExcludePublishers drops events from the listed nodes. Its canonical
	// use is origin filtering on a bridged segment: excluding the gateway
	// node's TxNode yields "only events generated on this field bus"
	// (§2.2.1), and a gateway uses it to avoid re-forwarding its own
	// injections.
	ExcludePublishers []can.TxNode
	// Filter, if non-nil, is a content predicate evaluated before
	// notification. Its Event's payload is valid during the call only.
	Filter func(Event) bool
}

func (a SubscribeAttrs) accepts(pub can.TxNode, ev Event) bool {
	for _, p := range a.ExcludePublishers {
		if p == pub {
			return false
		}
	}
	if len(a.Publishers) > 0 {
		ok := false
		for _, p := range a.Publishers {
			if p == pub {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if a.Filter != nil && !a.Filter(ev) {
		return false
	}
	return true
}

// DeliveryInfo accompanies every notification.
type DeliveryInfo struct {
	// Publisher is the transmitting node.
	Publisher can.TxNode
	// PublishedAt is the kernel time of the Publish call on this segment
	// (a relayed event's republish), carried with the event as simulation
	// metadata; a real system would carry a timestamp attribute instead.
	PublishedAt sim.Time
	// Origin is the federation header the event was published with
	// (WithOrigin; zero for an event published on this segment).
	Origin can.Origin
	// ArrivedAt is the kernel time the frame left the bus.
	ArrivedAt sim.Time
	// DeliveredAt is the kernel time the notification handler ran. For
	// HRT channels this is the slot's delivery deadline (de-jittered);
	// for SRT/NRT it equals arrival.
	DeliveredAt sim.Time
	// Late marks an HRT event that arrived after its delivery deadline
	// (possible only outside the fault assumption).
	Late bool
	// Copies is the number of redundant HRT copies received for this
	// event before delivery.
	Copies int
}

// NotificationHandler is application code run when an event passes all
// filters (§2.2.1). It executes in simulation-kernel context and must not
// block. Event.Payload is borrowed: it points into the channel's mailbox,
// the predefined memory area GetEvent reads, and stays valid until the
// channel's next delivery. Each node's channel has its own mailbox, so no
// other subscriber sees it; a handler that keeps the bytes past that
// copies them, as a Controller.OnReceive callback does with its frame.
type NotificationHandler func(Event, DeliveryInfo)

// ExceptionKind enumerates the exceptional situations the middleware
// reports to the application for awareness and adaptation (§2.2.2).
type ExceptionKind int

const (
	// ExcDeadlineMissed: an SRT event was transmitted after its
	// transmission deadline (transient overload, non-preemptable frame in
	// the way, or EDF approximation artifacts).
	ExcDeadlineMissed ExceptionKind = iota
	// ExcValidityExpired: an SRT event's expiration passed while still
	// queued; it was removed from the send queue entirely.
	ExcValidityExpired
	// ExcSlotMissed: a subscriber of a periodic HRT channel observed no
	// message in a reserved slot (publisher crash or faults beyond the
	// omission degree).
	ExcSlotMissed
	// ExcQueueOverflow: the publisher-side HRT event queue was full.
	ExcQueueOverflow
	// ExcTxFailure: a transmission was abandoned (single-shot collision
	// or node muted).
	ExcTxFailure
	// ExcFragError: reassembly of a fragmented NRT message failed
	// (sequence gap after an inconsistent omission, or timeout).
	ExcFragError
	// ExcLoadShed: an SRT event was dropped by value-based load shedding —
	// the node's send queue was full and this event had the least
	// residual value (Jensen-style overload management, ref [11]).
	ExcLoadShed
	// ExcAdmissionShed: the channel's announcement was withdrawn by the
	// probabilistic admission controller — an error-state transition
	// raised the measured error rate past what the channel's declared
	// deadline tolerates, and this channel was among the most recently
	// admitted violators. Publishes fail with ErrNotAnnounced until the
	// channel is re-announced (which re-runs admission under its
	// re-admission backoff).
	ExcAdmissionShed
)

// String implements fmt.Stringer.
func (k ExceptionKind) String() string {
	switch k {
	case ExcDeadlineMissed:
		return "DeadlineMissed"
	case ExcValidityExpired:
		return "ValidityExpired"
	case ExcSlotMissed:
		return "SlotMissed"
	case ExcQueueOverflow:
		return "QueueOverflow"
	case ExcTxFailure:
		return "TxFailure"
	case ExcFragError:
		return "FragError"
	case ExcLoadShed:
		return "LoadShed"
	case ExcAdmissionShed:
		return "AdmissionShed"
	}
	return "?"
}

// Exception is the local notification delivered to an application's
// exception handler. It is a plain value that holds the affected event,
// payload included, in its own fields: raising one allocates nothing, and
// a handler that keeps the Exception keeps its event's bytes, whatever
// later happens to the publisher's buffer or to the middleware record the
// event came from.
type Exception struct {
	Kind    ExceptionKind
	Subject binding.Subject
	// At is the kernel time the condition was detected.
	At sim.Time

	// What Detail renders: a fixed note, or else the kind's typed values,
	// so raising an exception formats nothing.
	note  string
	late  sim.Duration // DeadlineMissed: local time past the deadline
	value float64      // LoadShed: residual value when shed
	pub   can.TxNode   // SlotMissed: the slot's publisher
	round int64        // SlotMissed: the empty round

	// The affected event, when identifiable (none for SlotMissed,
	// FragError and AdmissionShed): ev without its slice, its payload in
	// buf[:n]. Exceptions carry HRT and SRT events, whose payloads fit one
	// frame.
	ev       Event
	buf      [can.MaxPayload]byte
	n        uint8
	hasEvent bool
}

// withEvent returns e carrying ev by value, its payload copied into e's
// own bytes.
func (e Exception) withEvent(ev Event) Exception {
	e.n = uint8(copy(e.buf[:], ev.Payload))
	ev.Payload = nil
	e.ev, e.hasEvent = ev, true
	return e
}

// event returns the affected event, its payload in e's own bytes, and
// whether there is one.
func (e *Exception) event() (Event, bool) {
	ev := e.ev
	if e.hasEvent {
		ev.Payload = e.buf[:e.n]
	}
	return ev, e.hasEvent
}

// Detail returns a short human-readable explanation.
func (e Exception) Detail() string {
	if e.note != "" {
		return e.note
	}
	switch e.Kind {
	case ExcDeadlineMissed:
		return fmt.Sprintf("transmitted %v after deadline", e.late)
	case ExcLoadShed:
		return fmt.Sprintf("shed with residual value %.2f", e.value)
	case ExcSlotMissed:
		return fmt.Sprintf("no event from node %d in round %d", e.pub, e.round)
	}
	return ""
}

// ExceptionHandler is application code invoked on exceptional conditions.
// It executes in simulation-kernel context and must not block. The
// Exception is a value that owns its event inline, never the middleware's
// storage, so the handler may retain it past its return.
type ExceptionHandler func(Exception)

// Counters aggregates per-node middleware statistics.
type Counters struct {
	PublishedHRT, PublishedSRT, PublishedNRT  uint64
	DeliveredHRT, DeliveredSRT, DeliveredNRT  uint64
	SlotsFired, SlotsUnused                   uint64
	RedundantCopiesSent, CopiesSuppressed     uint64
	DuplicatesDropped                         uint64
	SlotMissed, DeadlineMissed, Expired, Shed uint64
	Overflows, TxFailures, FragErrors         uint64
	LateHRTDeliveries                         uint64
	PromotionsApplied                         uint64
	// HoldoverWidened counts HRT guarantee checks performed with slack
	// widened beyond 2π because the clock-sync uncertainty had grown past
	// it (master failover in progress).
	HoldoverWidened uint64
	// Admission counters track the probabilistic admission controller's
	// decisions for channels announced on this node.
	AdmissionAdmitted, AdmissionRejected, AdmissionShed uint64
}
