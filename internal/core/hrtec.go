package core

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/clock"
	"canec/internal/frag"
	"canec/internal/obs"
	"canec/internal/sim"
)

// HRTEC is a hard real-time event channel (Fig. 1). Transport is certain:
// all resources are reserved off-line in the calendar, transmission is
// protected by the reserved top priority, omissions up to the configured
// degree are masked by time redundancy, and delivery happens exactly at
// the slot's delivery deadline so the application sees (near-)zero jitter.
type HRTEC struct {
	ch *channelState
}

// HRTEC returns the hard real-time channel for a subject on this node.
func (mw *Middleware) HRTEC(subject binding.Subject) (*HRTEC, error) {
	ch, err := mw.channel(subject, HRT)
	if err != nil {
		return nil, err
	}
	return &HRTEC{ch: ch}, nil
}

// hrtHeaderLen is the middleware header on HRT frames: one byte carrying
// a 4-bit event sequence number (copy deduplication and loss detection)
// and a 4-bit copy index.
const hrtHeaderLen = 1

// Announce prepares the channel for publication (§2.2.1): it validates
// the off-line reservation, binds the resources and starts the slot
// scheduler. The exception handler receives publisher-side conditions
// (queue overflow, transmission failures).
func (c *HRTEC) Announce(attrs ChannelAttrs, exc ExceptionHandler) error {
	ch := c.ch
	mw := ch.mw
	if mw.stopped {
		return errStopped
	}
	if mw.Cal == nil {
		return errNoSlot
	}
	if attrs.Payload < 0 || attrs.Payload > can.MaxPayload-hrtHeaderLen {
		return fmt.Errorf("%w: HRT payload %d (max %d)", errPayload, attrs.Payload, can.MaxPayload-hrtHeaderLen)
	}
	me := mw.node.Ctrl.Node()
	slots := ownedSlots(mw.Cal, ch.subject, me)
	if len(slots) == 0 {
		return errNoSlot
	}
	for _, s := range slots {
		if attrs.Payload+hrtHeaderLen > s.Payload {
			return fmt.Errorf("%w: slot dimensioned for %d bytes", errPayload, s.Payload-hrtHeaderLen)
		}
	}
	ch.attrs = attrs
	ch.pubExc = exc
	if attrs.QueueCap > 0 {
		ch.hrtQueueCap = attrs.QueueCap
	}
	if ch.announced {
		return nil
	}
	ch.announced = true
	for _, s := range slots {
		r := &hrtPubSlot{ch: ch, geom: mw.geomOf(s)}
		r.timer.Init(mw.K, mw.node.Clock, r.fire)
		r.arm(r.geom.nextActive(mw.startRound(s.Ready)))
	}
	return nil
}

// startRound returns the first round whose given slot offset has not yet
// passed on the local clock. A node announcing or subscribing mid-run —
// most importantly after a crash/restart — enters the calendar at the
// current phase instead of replaying every occurrence since round 0 (which
// would fire a catch-up cascade of spurious slot occurrences).
func (mw *Middleware) startRound(offset sim.Duration) int64 {
	rel := mw.LocalTime() - mw.Epoch - offset
	if rel <= 0 {
		return 0
	}
	return int64((rel + mw.Cal.Round - 1) / mw.Cal.Round)
}

// ownedSlots returns the calendar slots for (subject, publisher).
func ownedSlots(cal *calendar.Calendar, subj binding.Subject, n can.TxNode) []calendar.Slot {
	var out []calendar.Slot
	for _, s := range cal.SlotsForSubject(uint64(subj)) {
		if s.Publisher == n {
			out = append(out, s)
		}
	}
	return out
}

// Publish queues an event for transmission in the channel's next reserved
// slot. Events must be published before the slot's latest-ready instant
// to ride that slot; later publications ride the following round. The
// queue keeps its own copy of the payload, so the caller may reuse its
// buffer at once.
func (c *HRTEC) Publish(ev Event) error {
	k := c.ch.mw.K
	if k.Probe() == nil {
		return c.publish(ev)
	}
	w := k.StageStart()
	err := c.publish(ev)
	k.StageEnd(w, sim.ProbeEnqueue, sim.ProbeClassHRT)
	return err
}

func (c *HRTEC) publish(ev Event) error {
	ch := c.ch
	mw := ch.mw
	if !ch.announced {
		return ErrNotAnnounced
	}
	if mw.stopped {
		return errStopped
	}
	if len(ev.Payload) > ch.attrs.Payload {
		return fmt.Errorf("%w: %d > %d", errPayload, len(ev.Payload), ch.attrs.Payload)
	}
	if len(ch.hrtQueue) >= ch.hrtQueueCap {
		ch.raisePub(Exception{
			Kind: ExcQueueOverflow, Subject: ch.subject,
			At: mw.K.Now(), note: "HRT publish queue full",
		}.withEvent(ev))
		mw.Obs.Emit(0, obs.StageDropped, HRT.Obs(), mw.node.Index,
			uint64(ch.subject), mw.K.Now(), obs.DetailQueueOverflow)
		return errHRTQueueFull
	}
	ev.Attrs.Timestamp = mw.LocalTime()
	ev.publishedAt = mw.K.Now()
	if ev.traceID == 0 {
		ev.traceID = mw.Obs.Begin(HRT.Obs(), mw.node.Index, uint64(ch.subject), ev.publishedAt)
	} else {
		mw.Obs.Adopt(ev.traceID, HRT.Obs(), mw.node.Index, uint64(ch.subject), ev.publishedAt)
	}
	ch.hrtQueue = append(ch.hrtQueue, hrtQueued{ev: ev})
	q := &ch.hrtQueue[len(ch.hrtQueue)-1]
	q.ev.Payload, q.n = nil, uint8(copy(q.data[:], ev.Payload))
	ch.hrtSeq = (ch.hrtSeq + 1) & 0x0f
	mw.counters.PublishedHRT++
	mw.Obs.Emit(ev.traceID, obs.StageEnqueued, HRT.Obs(), mw.node.Index,
		uint64(ch.subject), mw.K.Now(), obs.DetailSlotQueue)
	return nil
}

// hrtQueued is one event waiting for its slot. Its payload bytes are
// inline, data[:n], and ev.Payload is nil: an entry moves as the queue
// shifts, so it holds no slice of itself.
type hrtQueued struct {
	ev   Event
	data [can.MaxPayload]byte
	n    uint8
}

// hrtPubSlot drives the publisher side of one reserved slot, round after
// round, on one timer re-armed in place: at the slot's latest-ready
// instant (local clock) the queued event — if any — is handed to the
// controller with the reserved top priority. An empty queue simply leaves
// the slot unused; CAN arbitration hands the reserved bandwidth to
// lower-priority traffic automatically, which is the paper's headline
// efficiency argument.
type hrtPubSlot struct {
	ch    *channelState
	geom  slotGeom
	round int64 // the occurrence the timer is armed for
	timer clock.LocalTimer
}

func (r *hrtPubSlot) arm(round int64) {
	mw := r.ch.mw
	r.round = round
	r.timer.Arm(mw.Epoch + sim.Time(round)*mw.Cal.Round + r.geom.ready)
}

func (r *hrtPubSlot) fire() {
	ch := r.ch
	if ch.mw.stopped || !ch.announced {
		return
	}
	ch.fireSlot()
	r.arm(r.geom.nextActive(r.round + 1))
}

// fireSlot transmits the head of the publish queue in the current slot,
// with time redundancy against omissions.
func (ch *channelState) fireSlot() {
	mw := ch.mw
	if len(ch.hrtQueue) == 0 {
		mw.counters.SlotsUnused++
		mw.Obs.SlotOutcome(false)
		return
	}
	var tx *hrtTx
	if n := len(ch.hrtTxFree); n > 0 {
		tx, ch.hrtTxFree = ch.hrtTxFree[n-1], ch.hrtTxFree[:n-1]
	} else {
		tx = &hrtTx{ch: ch}
		tx.done = tx.sent
	}
	head := &ch.hrtQueue[0]
	tx.ev, tx.data = head.ev, head.data
	tx.ev.Payload = tx.data[:head.n]
	n := copy(ch.hrtQueue, ch.hrtQueue[1:])
	ch.hrtQueue[n] = hrtQueued{}
	ch.hrtQueue = ch.hrtQueue[:n]
	mw.counters.SlotsFired++
	mw.Obs.SlotOutcome(true)

	// Sequence numbers advance with publishes and slots consume events
	// FIFO, so the head's number is the current one less the events
	// still queued behind it.
	tx.seq = (ch.hrtSeq - uint8(n)) & 0x0f
	tx.send(0)
}

// hrtTx is one slot transmission in progress: the event, its payload
// bytes (ev.Payload slices data) and the index of the copy on the
// controller. Its done field, the controller's Done
// callback, is the sent method bound once when the record is made.
// Records return to the channel's free list when the transmission ends;
// a slot that fires while the previous round's copy is still pending
// (bus-off, a crash, faults beyond the omission degree) takes another.
type hrtTx struct {
	ch   *channelState
	ev   Event
	data [can.MaxPayload]byte
	seq  uint8
	idx  int
	done func(ok bool, at sim.Time)
}

// send submits copy idx of the event. The frame is built on the stack:
// Submit copies the payload.
func (tx *hrtTx) send(idx int) {
	ch := tx.ch
	mw := ch.mw
	tx.idx = idx
	var payload [can.MaxPayload]byte
	payload[0] = tx.seq<<4 | uint8(idx)&0x0f
	n := hrtHeaderLen + copy(payload[hrtHeaderLen:], tx.ev.Payload)
	mw.node.Ctrl.Submit(tx.ev.frame(can.MakeID(mw.bands.HRTPrio, mw.node.Ctrl.Node(), ch.etag), payload[:n]),
		can.SubmitOpts{Done: tx.done})
}

// sent is the controller's completion callback for the copy in flight:
// it sends the next redundant copy or ends the transmission.
func (tx *hrtTx) sent(ok bool, _ sim.Time) {
	ch := tx.ch
	mw := ch.mw
	left := mw.Cal.Cfg.OmissionDegree - tx.idx
	if ok && left > 0 && !mw.SuppressRedundancy {
		mw.counters.RedundantCopiesSent++
		mw.Obs.Copies("sent", 1)
		tx.send(tx.idx + 1)
		return
	}
	if !ok {
		// The exception's own copy: the record is reused.
		ch.raisePub(Exception{
			Kind: ExcTxFailure, Subject: ch.subject,
			At: mw.K.Now(), note: "HRT transmission abandoned",
		}.withEvent(tx.ev))
		mw.Obs.Emit(tx.ev.traceID, obs.StageDropped, HRT.Obs(), mw.node.Index,
			uint64(ch.subject), mw.K.Now(), obs.DetailTxAbandoned)
	} else if left > 0 {
		// The sender observed a consistently successful transmission:
		// under the consistent-fault assumption all operational nodes
		// have the message, so the remaining redundant copies are
		// suppressed and their bandwidth is reclaimed by lower-priority
		// traffic (§3.2).
		mw.counters.CopiesSuppressed += uint64(left)
		mw.Obs.Copies("suppressed", uint64(left))
	}
	tx.ev = Event{}
	ch.hrtTxFree = append(ch.hrtTxFree, tx)
}

// pubState is a subscribed channel's view of one publisher, made on
// first use (see channelState.pub). On an HRT channel it holds copy
// deduplication, the arrival stash, the last delivered round (for
// missing-message detection) and the geometry of the publisher's
// calendar slot; on an NRT channel, the reassembler.
type pubState struct {
	seen      bool
	lastSeq   uint8
	stashed   bool
	hasSlot   bool
	stash     hrtArrival
	delivered int64
	geom      slotGeom
	reasm     frag.Reassembler
}

// slotGeom is one slot's timing on the local clock, computed once when
// a channel resolves the slot: the calendar is static (§3.1–3.2), so
// the latest-ready and delivery-deadline offsets within the round never
// change, nor do the rounds the slot is active in, r ≡ phase (mod
// every) with every ≥ 1.
type slotGeom struct {
	ready, deadline sim.Duration
	every, phase    int64
}

// geomOf resolves a slot of the node's calendar.
func (mw *Middleware) geomOf(s calendar.Slot) slotGeom {
	return slotGeom{ready: s.Ready, deadline: s.Deadline(mw.Cal.Cfg),
		every: int64(max(s.Every, 1)), phase: int64(s.Phase)}
}

// nextActive returns the smallest active round ≥ from.
func (g *slotGeom) nextActive(from int64) int64 {
	if g.every == 1 {
		return from
	}
	return from + ((g.phase-from)%g.every+g.every)%g.every
}

// hrtArrival stashes a received HRT event until its delivery deadline:
// its payload bytes, data[:n], trace ID, publish instant and federation
// header.
type hrtArrival struct {
	data        [can.MaxPayload]byte
	n           uint8
	traceID     uint64
	publishedAt sim.Time
	origin      can.Origin
	seq         uint8
	arrivedAt   sim.Time
	copies      int
	round       int64
}

// Subscribe installs the notification and exception handlers and starts
// the delivery scheduler (§2.2.1). The channel attributes must match the
// publisher's announcement (type checking); the subscribe attributes
// provide filtering. The subscriber-side middleware knows the calendar,
// so it detects missing messages in periodic slots and raises SlotMissed.
// Subscribing again after CancelSubscription enters the calendar at the
// current round, as the first time: a stash whose deadline is ahead is
// kept, a delivered occurrence is not checked again, and otherwise the
// publisher's stash and last sequence number are forgotten.
func (c *HRTEC) Subscribe(attrs ChannelAttrs, sub SubscribeAttrs, notify NotificationHandler, exc ExceptionHandler) error {
	ch := c.ch
	mw := ch.mw
	if mw.Cal == nil {
		return errNoSlot
	}
	slots := mw.Cal.SlotsForSubject(uint64(ch.subject))
	if len(slots) == 0 {
		return errNoSlot
	}
	if first, err := ch.subscribe(attrs, sub, notify, exc); !first {
		return err
	}
	if ch.hrtSubs == nil {
		next := &ch.hrtSubs
		for _, s := range slots {
			r := &hrtSubSlot{ch: ch, publisher: s.Publisher, periodic: s.Periodic,
				pub: ch.pub(s.Publisher), geom: mw.geomOf(s)}
			r.timer.Init(mw.K, mw.node.Clock, r.fire)
			r.miss.r = r
			r.miss.timer.Init(mw.K, mw.node.Clock, r.miss.fire)
			*next, next = r, &r.next
		}
	}
	for r := ch.hrtSubs; r != nil; r = r.next {
		round := r.geom.nextActive(mw.startRound(r.geom.deadline))
		if r.pub.seen && r.pub.delivered >= round { // subscribed again in its handler
			round = r.geom.nextActive(r.pub.delivered + 1)
		}
		if !r.pub.stashed || r.pub.stash.round < round {
			r.pub.stashed, r.pub.seen = false, false
		}
		r.arm(round)
	}
	return nil
}

// CancelSubscription removes the subscription. It is a strictly local
// operation releasing local resources (§2.2.1): the slots' delivery and
// miss timers stop.
func (c *HRTEC) CancelSubscription() {
	c.ch.unsubscribe()
	for r := c.ch.hrtSubs; r != nil; r = r.next {
		r.timer.Stop()
		for mc := &r.miss; mc != nil; mc = mc.next {
			mc.timer.Stop()
		}
	}
}

// hrtReceive stashes an arriving HRT frame for de-jittered delivery, or
// delivers immediately (flagged) when the deadline has already passed on
// this node's clock.
func (ch *channelState) hrtReceive(f *can.Frame, at sim.Time) {
	if len(f.Data) < hrtHeaderLen {
		return
	}
	pub := f.ID.TxNode()
	seq := f.Data[0] >> 4
	// The filters read the shared frame; the stash copies what it keeps.
	ev := Event{
		Subject: ch.subject,
		Payload: f.Data[hrtHeaderLen:],
		traceID: f.Tag,
	}
	if !ch.subAttrs.accepts(pub, ev) {
		return
	}
	ps := ch.pub(pub)
	if ps.seen && ps.lastSeq == seq {
		// Redundant copy of an already-seen event.
		ch.mw.counters.DuplicatesDropped++
		if ps.stashed && ps.stash.seq == seq {
			ps.stash.copies++
		}
		return
	}
	ps.seen = true
	ps.lastSeq = seq
	if !ps.hasSlot {
		return
	}
	mw := ch.mw
	local := mw.LocalTime()
	round, deadline := ch.occurrenceOf(&ps.geom, local)
	// Field by field: the stash is overwritten in place, not copied in.
	st := &ps.stash
	st.n = uint8(copy(st.data[:], ev.Payload))
	st.traceID, st.publishedAt, st.origin = f.Tag, f.PublishedAt, f.Origin
	st.seq, st.arrivedAt, st.copies, st.round = seq, at, 1, round
	ps.stashed = true
	if mw.DeliverOnArrival {
		// De-jitter ablation: hand the event over immediately, exposing
		// the full network-level jitter to the application.
		ch.hrtDeliver(pub, ps, false)
		return
	}
	if local > deadline {
		// Arrived past this node's view of the deadline (clock skew or a
		// fault burst beyond the assumption): deliver immediately rather
		// than hold it a full round. Within the sync precision this still
		// counts as on-time.
		late := local > deadline+mw.hrtSlack()
		ch.hrtDeliver(pub, ps, late)
	}
}

// occurrenceOf maps a local time to the slot occurrence (active round)
// whose transmission window contains or most recently preceded it,
// returning the round index and that occurrence's delivery deadline in
// local time.
func (ch *channelState) occurrenceOf(g *slotGeom, local sim.Time) (int64, sim.Time) {
	mw := ch.mw
	var round int64
	if rel := local - mw.Epoch - g.ready; rel > 0 {
		round = int64(rel / mw.Cal.Round)
	}
	if g.every > 1 {
		// Snap down to the most recent round this slot is active in, but
		// not before its first.
		round -= ((round-g.phase)%g.every + g.every) % g.every
		round = max(round, g.phase)
	}
	return round, mw.Epoch + sim.Time(round)*mw.Cal.Round + g.deadline
}

// hrtDeliver notifies the application of the publisher's stashed arrival
// and records delivery bookkeeping.
func (ch *channelState) hrtDeliver(pub can.TxNode, ps *pubState, late bool) {
	mw := ch.mw
	st := &ps.stash
	ps.stashed = false
	ps.delivered = st.round
	if mw.watchdog != nil {
		mw.watchdog.noteAlive(pub)
	}
	mw.counters.DeliveredHRT++
	if late {
		mw.counters.LateHRTDeliveries++
	}
	di := DeliveryInfo{
		Publisher:   pub,
		PublishedAt: st.publishedAt,
		Origin:      st.origin,
		ArrivedAt:   st.arrivedAt,
		DeliveredAt: mw.K.Now(),
		Late:        late,
		Copies:      st.copies,
	}
	ev := ch.store(Event{Subject: ch.subject, Payload: st.data[:st.n], traceID: st.traceID}, di)
	var detail obs.Detail
	if late {
		detail = obs.DetailLate
	}
	mw.Obs.Delivered(st.traceID, HRT.Obs(), mw.node.Index,
		uint64(ch.subject), di.PublishedAt, di.DeliveredAt, detail)
	ch.deliverNotify(ev, di)
}

// GetEvent retrieves the most recently delivered event from the
// middleware's memory area — the paper's getEvent() primitive (§2.2.1).
// ok is false before the first delivery. The payload is the mailbox's,
// valid until the channel's next delivery, as in a NotificationHandler.
func (c *HRTEC) GetEvent() (ev Event, di DeliveryInfo, ok bool) { return c.ch.getEvent() }

// hrtSubSlot drives the subscriber side of one slot, round after round,
// on one timer re-armed in place: deliver the stashed event exactly at the
// delivery deadline (cancelling network jitter), and for periodic slots
// verify — one precision bound later — that something was delivered,
// raising SlotMissed otherwise.
type hrtSubSlot struct {
	ch        *channelState
	publisher can.TxNode
	periodic  bool
	pub       *pubState
	geom      slotGeom
	round     int64 // the occurrence the timer is armed for
	timer     clock.LocalTimer
	miss      hrtMissCheck
	next      *hrtSubSlot // the channel's next slot record
}

// hrtMissCheck is the pending verification of one slot occurrence. A
// slot's checks are a list headed by hrtSubSlot.miss, reused when idle.
type hrtMissCheck struct {
	r     *hrtSubSlot
	round int64
	timer clock.LocalTimer
	next  *hrtMissCheck
}

// deadline is the delivery deadline (local clock) of the armed occurrence.
func (r *hrtSubSlot) deadline() sim.Time {
	mw := r.ch.mw
	return mw.Epoch + sim.Time(r.round)*mw.Cal.Round + r.geom.deadline
}

func (r *hrtSubSlot) arm(round int64) {
	r.round = round
	r.timer.Arm(r.deadline())
}

func (r *hrtSubSlot) fire() {
	ch := r.ch
	mw := ch.mw
	if mw.stopped {
		return
	}
	if r.pub.stashed {
		ch.hrtDeliver(r.publisher, r.pub, false)
	} else if r.periodic {
		// Allow the clock precision before declaring a miss: the
		// publisher's clock may run up to π behind ours — more during
		// holdover, when the slack is widened to the uncertainty bound.
		// Once it widens past a round, the previous occurrence's check is
		// still pending here and this one gets a check of its own.
		mc := &r.miss
		for mc.timer.Armed() {
			if mc.next == nil {
				mc.next = &hrtMissCheck{r: r}
				mc.next.timer.Init(mw.K, mw.node.Clock, mc.next.fire)
			}
			mc = mc.next
		}
		mc.round = r.round
		mc.timer.Arm(r.deadline() + mw.hrtSlack())
	}
	// Unless the handler cancelled, or subscribed again and so re-armed.
	if ch.subscribed && !r.timer.Armed() {
		r.arm(r.geom.nextActive(r.round + 1))
	}
}

func (mc *hrtMissCheck) fire() {
	r := mc.r
	ch := r.ch
	mw := ch.mw
	if mw.stopped {
		return
	}
	if r.pub.delivered >= mc.round && r.pub.seen {
		return // arrived within the grace window
	}
	pub := r.publisher
	if mw.watchdog != nil {
		mw.watchdog.noteMiss(pub)
	}
	ch.raiseSub(Exception{
		Kind: ExcSlotMissed, Subject: ch.subject, At: mw.K.Now(),
		pub: pub, round: mc.round,
	})
	if mw.Obs.Enabled() {
		mw.Obs.Emit(0, obs.StageMissed, HRT.Obs(), mw.node.Index,
			uint64(ch.subject), mw.K.Now(),
			obs.MissedRound(int(pub), mc.round))
	}
}
