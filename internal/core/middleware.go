package core

import (
	"errors"
	"fmt"
	"slices"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/clock"
	"canec/internal/edf"
	"canec/internal/obs"
	"canec/internal/prob"
	"canec/internal/sim"
)

// Bands fixes the global priority layout. The middleware rigorously
// enforces the paper's relation 0 ≤ P_HRT < P_SRT < P_NRT (§3.3): HRT
// traffic owns priority 0, clock synchronization runs directly below it,
// the SRT band maps deadlines, and the NRT band provides fixed low
// priorities.
type Bands struct {
	// HRTPrio is the single reserved hard real-time priority (0).
	HRTPrio can.Prio
	// SyncPrio carries clock synchronization (directly below HRT).
	SyncPrio can.Prio
	// SRT is the EDF band.
	SRT edf.Band
	// NRTMin..NRTMax is the non real-time band (NRTMax = lowest priority).
	NRTMin, NRTMax can.Prio
}

// DefaultBands returns the layout used throughout the experiments:
// HRT = 0, sync = 1, SRT = 2..250 (the paper's 250-level example less the
// sync level), NRT = 251..255 (5 levels).
func DefaultBands() Bands {
	b := edf.DefaultBand()
	b.Min = 2
	return Bands{HRTPrio: 0, SyncPrio: 1, SRT: b, NRTMin: 251, NRTMax: 255}
}

// Validate checks the band ordering invariant.
func (b Bands) Validate() error {
	if err := b.SRT.Validate(); err != nil {
		return err
	}
	if !(b.HRTPrio < b.SyncPrio && b.SyncPrio < b.SRT.Min && b.SRT.Max < b.NRTMin && b.NRTMin <= b.NRTMax) {
		return fmt.Errorf("core: band ordering violated: hrt=%d sync=%d srt=[%d,%d] nrt=[%d,%d]",
			b.HRTPrio, b.SyncPrio, b.SRT.Min, b.SRT.Max, b.NRTMin, b.NRTMax)
	}
	return nil
}

// Node bundles one station's controller, clock and middleware.
type Node struct {
	Index int
	Ctrl  *can.Controller
	Clock *clock.Clock
	MW    *Middleware
}

// Middleware is the per-node event channel layer.
type Middleware struct {
	K     *sim.Kernel
	node  *Node
	bands Bands

	// Bindings is this node's (static) subject→etag table, distributed
	// with the off-line configuration.
	Bindings *binding.Table
	// Cal is the hard real-time calendar (may be nil if the node uses no
	// HRT channels). Epoch is the local time of round 0's start.
	Cal   *calendar.Calendar
	Epoch sim.Time

	// SuppressRedundancy enables the paper's bandwidth optimisation: stop
	// sending redundant HRT copies once one transmission was consistently
	// successful (§3.2). Disabling it always sends OmissionDegree+1
	// copies, like TTP/TTCAN-style static redundancy.
	SuppressRedundancy bool

	// DisablePromotion freezes each SRT message at the priority computed
	// when it was enqueued (ablation of the §3.4 dynamic priority
	// increase: "static deadline priorities").
	DisablePromotion bool

	// DeliverOnArrival bypasses the HRT delivery-at-deadline machinery
	// and notifies subscribers as soon as the frame leaves the bus
	// (ablation of the §3.2 middleware de-jittering).
	DeliverOnArrival bool

	// MaxQueuedSRT bounds the node's total queued SRT events across all
	// channels. When a publish would exceed it, value-based load shedding
	// removes the queued event with the least residual value (Jensen, ref
	// [11]); channels without a value function count as value 1 while
	// before their deadline and 0 after. Zero disables shedding.
	MaxQueuedSRT int

	// Syncer, if set, receives frames on the sync etag.
	Syncer interface {
		HandleFrame(node int, f can.Frame, at sim.Time)
	}
	// Health, if set, reports this node's current clock uncertainty bound
	// (the clock.Syncer implements it). During master failover the bound
	// grows past the calendar's precision, and the HRT machinery widens
	// its delivery-guarantee slack accordingly instead of flagging
	// spurious late deliveries and slot misses.
	Health interface {
		Uncertainty(node int, now sim.Time) sim.Duration
	}
	// ConfigRx, if set, receives frames on the config etag (binding
	// agent or client).
	ConfigRx func(f can.Frame, at sim.Time)

	// Obs, if non-nil, receives life-cycle stage records and metrics for
	// this node's channel activity. All emission helpers are nil-safe, so
	// the middleware calls them unconditionally.
	Obs *obs.Observer

	// Admission, if non-nil, is the segment-wide probabilistic admission
	// controller consulted when SRT/NRT channels are announced (HRT
	// channels are dimensioned deterministically by the calendar and
	// bypass it). Nil keeps announcement unconditional — the admission
	// path costs nothing on Publish either way, because a shed channel
	// is simply de-announced.
	Admission *prob.Controller

	// channels is indexed by etag and grown to the highest one the node
	// opened; nil marks an etag it has no channel on. Receiving a frame
	// is a bounds check and a load, and every walk runs in etag order.
	channels []*channelState
	counters Counters
	stopped  bool
	watchdog *Watchdog
	srtSeq   uint64
}

// Node returns the owning node.
func (mw *Middleware) Node() *Node { return mw.node }

// Bands returns the priority layout.
func (mw *Middleware) Bands() Bands { return mw.bands }

// Counters returns a snapshot of the node's statistics.
func (mw *Middleware) Counters() Counters { return mw.counters }

// LocalTime returns the node's current local clock reading.
func (mw *Middleware) LocalTime() sim.Time { return mw.node.Clock.Read(mw.K.Now()) }

// Stop halts all channel activity (slot schedulers, promotion timers stop
// re-arming). Used by experiments to end a run cleanly.
func (mw *Middleware) Stop() { mw.stopped = true }

// probeClass maps a channel class onto the kernel probe's class axis.
func probeClass(c Class) sim.ProbeClass {
	switch c {
	case HRT:
		return sim.ProbeClassHRT
	case SRT:
		return sim.ProbeClassSRT
	case NRT:
		return sim.ProbeClassNRT
	}
	return sim.ProbeClassNone
}

// dispatch routes received frames, attributing the receive-side cost to
// the profiler's dispatch stage when a probe is attached to the kernel
// (one nil check otherwise).
func (mw *Middleware) dispatch(f can.Frame, at sim.Time) {
	if mw.K.Probe() == nil {
		mw.dispatchFrame(&f, at)
		return
	}
	w := mw.K.StageStart()
	mw.dispatchFrame(&f, at)
	class := sim.ProbeClassNone
	if ch := mw.channelAt(f.ID.Etag()); ch != nil {
		class = probeClass(ch.class)
	}
	mw.K.StageEnd(w, sim.ProbeDispatch, class)
}

// dispatchFrame routes received frames: sync and configuration channels
// first, then per-etag channel state. The frame is dispatch's: passing
// it down by reference spares each receiving node's copies.
func (mw *Middleware) dispatchFrame(f *can.Frame, at sim.Time) {
	etag := f.ID.Etag()
	switch etag {
	case binding.SyncEtag:
		if mw.Syncer != nil {
			mw.Syncer.HandleFrame(mw.node.Index, *f, at)
		}
		return
	case binding.ConfigEtag:
		if mw.ConfigRx != nil {
			mw.ConfigRx(*f, at)
		}
		return
	}
	ch := mw.channelAt(etag)
	if ch == nil || !ch.subscribed {
		return
	}
	switch ch.class {
	case HRT:
		ch.hrtReceive(f, at)
	case SRT:
		ch.srtReceive(f, at)
	case NRT:
		ch.nrtReceive(f, at)
	}
}

// channelAt returns the node's channel on an etag, nil if it has none.
func (mw *Middleware) channelAt(etag can.Etag) *channelState {
	if int(etag) < len(mw.channels) {
		return mw.channels[etag]
	}
	return nil
}

// channelState is the middleware-internal representation of one event
// channel on one node (§2: "an event channel is dynamically created
// whenever a publisher makes an announcement ... or a subscriber
// subscribes").
type channelState struct {
	mw      *Middleware
	subject binding.Subject
	etag    can.Etag
	// The flags and the HRT sequence number share the etag's word, which
	// keeps the struct in the 448-byte allocation class: every node
	// builds one per channel it uses, so set-up time follows its size.
	announced  bool  // publisher side set up
	subscribed bool  // subscriber side set up
	hasEvent   bool  // the mailbox holds a delivery
	hrtSeq     uint8 // HRT publisher: the last published event's sequence number
	nrtBusy    bool  // NRT publisher: the controller holds a fragment
	nrtOrphan  bool  // the held fragment's message was dropped from the queue
	class      Class
	attrs      ChannelAttrs

	// publisher side
	pubExc ExceptionHandler
	// subscriber side
	subAttrs SubscribeAttrs
	notify   NotificationHandler
	subExc   ExceptionHandler

	// HRT publisher: pending events waiting for slots and the free list
	// of slot transmission records (see hrtTx).
	hrtQueue    []hrtQueued
	hrtQueueCap int
	hrtTxFree   []*hrtTx
	// Subscriber: the state per publisher (see pubState), indexed by
	// TxNode and grown to the highest one seen; on HRT, the slot records.
	pubs    []*pubState
	hrtSubs *hrtSubSlot

	// SRT publisher: the queued entries (promotion, expiration), each
	// knowing its index, and the free list of entry records, linked
	// through srtEntry.next.
	srtActive []*srtEntry
	srtFree   *srtEntry

	// NRT publisher: send queue of messages, the fragment the controller
	// holds while nrtBusy, and its Done (nrtSent, bound at the first
	// Announce).
	nrtQueue []nrtMsg
	nrtTx    can.TxHandle
	nrtDone  func(ok bool, at sim.Time)

	// Mailbox: the most recently delivered event (§2.2.1: the middleware
	// stores the event in a predefined memory area; the notification
	// handler retrieves it with getEvent()). The event is kept by its
	// parts, since its subject is the channel's and a delivery carries
	// no attributes. lastPayload is what the handler and getEvent see:
	// mbox for an HRT or SRT frame's bytes, the reassembled message for
	// NRT. Storing a delivery moves nothing to the heap.
	lastPayload []byte
	lastTrace   uint64
	mbox        [can.MaxPayload]byte
	lastInfo    DeliveryInfo

	// missed counts this channel's timing failures (deadline misses,
	// validity expiries, missed HRT slots) for the introspection plane.
	missed uint64
}

// pub returns the channel's state for a publisher, making it on first
// use.
func (ch *channelState) pub(p can.TxNode) *pubState {
	if int(p) < len(ch.pubs) && ch.pubs[p] != nil {
		return ch.pubs[p]
	}
	return ch.newPub(p)
}

// newPub makes a publisher's state: on an HRT channel it resolves the
// publisher's first slot for the subject, on an NRT channel it arms the
// reassembler's stall timeout.
func (ch *channelState) newPub(p can.TxNode) *pubState {
	if int(p) >= len(ch.pubs) {
		ch.pubs = append(ch.pubs, make([]*pubState, int(p)+1-len(ch.pubs))...)
	}
	ps := &pubState{}
	switch ch.class {
	case HRT:
		if own := ownedSlots(ch.mw.Cal, ch.subject, p); len(own) > 0 {
			ps.geom, ps.hasSlot = ch.mw.geomOf(own[0]), true
		}
	case NRT:
		ps.reasm.Timeout = 5 * sim.Second
	}
	ch.pubs[p] = ps
	return ps
}

// getEvent returns the mailbox contents.
func (ch *channelState) getEvent() (Event, DeliveryInfo, bool) {
	if !ch.hasEvent {
		return Event{}, DeliveryInfo{}, false
	}
	return Event{Subject: ch.subject, Payload: ch.lastPayload, traceID: ch.lastTrace}, ch.lastInfo, true
}

// store fills the mailbox prior to notification and returns the event to
// notify, whose payload is the mailbox's. An HRT or SRT payload, one
// frame's bytes at most, is copied into the mailbox buffer; an NRT
// message is the reassembler's fresh allocation and is kept as is.
func (ch *channelState) store(ev Event, di DeliveryInfo) Event {
	if ch.class != NRT {
		ev.Payload = ch.mbox[:copy(ch.mbox[:], ev.Payload)]
	}
	ch.lastPayload, ch.lastTrace, ch.lastInfo, ch.hasEvent = ev.Payload, ev.traceID, di, true
	return ev
}

// deliverNotify runs the subscriber's notification handler, attributing
// its cost (and counting one delivered frame) to the profiler's delivery
// stage when a probe is attached.
func (ch *channelState) deliverNotify(ev Event, di DeliveryInfo) {
	if ch.notify == nil {
		return
	}
	k := ch.mw.K
	if k.Probe() == nil {
		ch.notify(ev, di)
		return
	}
	w := k.StageStart()
	ch.notify(ev, di)
	k.StageEnd(w, sim.ProbeDelivery, probeClass(ch.class))
}

var (
	// ErrNotAnnounced is returned by Publish before Announce.
	ErrNotAnnounced = errors.New("core: channel not announced")
	// errPayload is returned for payloads beyond the channel's capacity.
	errPayload = errors.New("core: payload exceeds channel capacity")
	// errHRTQueueFull and errSRTQueueFull refuse a publish whose event
	// found no room in the channel's HRT queue or the node's SRT send
	// queue. They are fixed values, so a refusal allocates nothing.
	errHRTQueueFull = errors.New("core: HRT publish queue full")
	errSRTQueueFull = errors.New("core: SRT send queue full, no sheddable entry")
	// ErrClassMismatch is returned when a subject is reused with a
	// different channel class: every subject has at most one channel.
	ErrClassMismatch = errors.New("core: subject already bound to a different channel class")
	// errNoSlot is returned when an HRT announce finds no reserved slot
	// for (subject, node) in the calendar.
	errNoSlot = errors.New("core: no calendar slot reserved for this publisher")
	// errPrioOutOfBand is returned when an NRT announce requests a
	// priority outside the NRT band: the middleware "rigorously has to
	// enforce" the band relation (§3.3).
	errPrioOutOfBand = errors.New("core: NRT priority outside the configured band")
	// errStopped is returned after Stop.
	errStopped = errors.New("core: middleware stopped")
)

// channel returns or creates the state for a subject, checking class
// consistency ("for every event type there is at most one event channel",
// §2).
func (mw *Middleware) channel(subject binding.Subject, class Class) (*channelState, error) {
	if mw.stopped {
		return nil, errStopped
	}
	etag, err := mw.Bindings.Bind(subject)
	if err != nil {
		return nil, err
	}
	if ch := mw.channelAt(etag); ch != nil {
		if ch.class != class {
			return nil, ErrClassMismatch
		}
		return ch, nil
	}
	// The per-class tables are made by the code that first fills them: a
	// channel pays only for the class it is and the side it plays.
	ch := &channelState{
		mw:          mw,
		subject:     subject,
		etag:        etag,
		class:       class,
		hrtQueueCap: 8,
	}
	if n := int(etag) + 1; n > len(mw.channels) {
		// The first growth makes room for etags below 64, which holds
		// every channel of most nodes in one allocation.
		mw.channels = slices.Grow(mw.channels, max(n, 64)-len(mw.channels))[:n]
	}
	mw.channels[etag] = ch
	return ch, nil
}

// subscribe installs the subscriber's handlers and filter, the part of
// Subscribe every class shares, and reports whether the channel was not
// subscribed before. A second Subscribe replaces the handlers.
func (ch *channelState) subscribe(attrs ChannelAttrs, sub SubscribeAttrs, notify NotificationHandler, exc ExceptionHandler) (first bool, err error) {
	if ch.mw.stopped {
		return false, errStopped
	}
	if !ch.announced {
		ch.attrs = attrs
	}
	ch.subAttrs, ch.notify, ch.subExc = sub, notify, exc
	if ch.subscribed {
		return false, nil
	}
	ch.subscribed = true
	ch.mw.node.Ctrl.AddFilter(ch.etag)
	return true, nil
}

// unsubscribe is the part of CancelSubscription every class shares.
func (ch *channelState) unsubscribe() {
	ch.subscribed = false
	ch.notify = nil
	ch.mw.node.Ctrl.RemoveFilter(ch.etag)
}

// raisePub invokes the publisher-side exception handler if installed.
func (ch *channelState) raisePub(e Exception) {
	switch e.Kind {
	case ExcDeadlineMissed:
		ch.mw.counters.DeadlineMissed++
		ch.missed++
	case ExcValidityExpired:
		ch.mw.counters.Expired++
		ch.missed++
	case ExcQueueOverflow:
		ch.mw.counters.Overflows++
	case ExcLoadShed:
		ch.mw.counters.Shed++
	case ExcAdmissionShed:
		ch.mw.counters.AdmissionShed++
	case ExcTxFailure:
		ch.mw.counters.TxFailures++
	}
	ch.mw.Obs.ExceptionRaised(e.Kind.String())
	if ch.pubExc != nil {
		ch.pubExc(e)
	}
}

// raiseSub invokes the subscriber-side exception handler if installed.
func (ch *channelState) raiseSub(e Exception) {
	switch e.Kind {
	case ExcSlotMissed:
		ch.mw.counters.SlotMissed++
		ch.missed++
	case ExcFragError:
		ch.mw.counters.FragErrors++
	}
	ch.mw.Obs.ExceptionRaised(e.Kind.String())
	if ch.subExc != nil {
		ch.subExc(e)
	}
}

// hrtSlack returns the tolerance applied to HRT deadline checks: twice
// the calendar's clock precision in steady state, widened to the current
// holdover uncertainty bound when the synchronization health degrades
// past it (the paper's guarantees assume π; while no master is correcting
// the clocks, π is unattainable and the guarantee is explicitly widened
// rather than silently violated).
func (mw *Middleware) hrtSlack() sim.Duration {
	slack := 2 * mw.Cal.Cfg.Precision
	if mw.Health != nil {
		if u := mw.Health.Uncertainty(mw.node.Index, mw.K.Now()); u > slack {
			mw.counters.HoldoverWidened++
			return u
		}
	}
	return slack
}

// hrtQueuedTotal counts events waiting for slots across the node's HRT
// channels (for the observability queue-depth gauge).
func (mw *Middleware) hrtQueuedTotal() int {
	n := 0
	for _, ch := range mw.channels {
		if ch != nil && ch.class == HRT {
			n += len(ch.hrtQueue)
		}
	}
	return n
}

// nrtQueuedTotal counts queued fragment chains across the node's NRT
// channels, including the one in progress.
func (mw *Middleware) nrtQueuedTotal() int {
	n := 0
	for _, ch := range mw.channels {
		if ch != nil && ch.class == NRT {
			n += len(ch.nrtQueue)
		}
	}
	return n
}

// ChannelInfo is a read-only snapshot of one channel's state, for
// monitoring and debugging (the admin plane serves it at /channels).
type ChannelInfo struct {
	Subject    binding.Subject
	Etag       can.Etag
	Class      Class
	Announced  bool
	Subscribed bool
	Attrs      ChannelAttrs
	// Queued is the channel's current send-side backlog: pending HRT
	// slot events, active (unexpired) SRT entries, or queued NRT
	// fragment chains.
	Queued int
	// Missed counts the channel's timing failures so far: deadline
	// misses, validity expiries, and missed HRT slots.
	Missed uint64
}

// queued returns the channel's current send-side backlog.
func (ch *channelState) queued() int {
	switch ch.class {
	case HRT:
		return len(ch.hrtQueue)
	case SRT:
		return len(ch.srtActive)
	case NRT:
		return len(ch.nrtQueue)
	}
	return 0
}

// Channels lists the channels this node's middleware currently holds,
// in etag order.
func (mw *Middleware) Channels() []ChannelInfo {
	var out []ChannelInfo
	for _, ch := range mw.channels {
		if ch == nil {
			continue
		}
		out = append(out, ChannelInfo{
			Subject:    ch.subject,
			Etag:       ch.etag,
			Class:      ch.class,
			Announced:  ch.announced,
			Subscribed: ch.subscribed,
			Attrs:      ch.attrs,
			Queued:     ch.queued(),
			Missed:     ch.missed,
		})
	}
	return out
}
