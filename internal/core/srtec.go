package core

import (
	"fmt"
	"slices"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/clock"
	"canec/internal/obs"
	"canec/internal/sim"
)

// SRTEC is a soft real-time event channel (Fig. 2): no reservations;
// events carry transmission deadlines and are scheduled EDF by encoding
// their laxity in the priority field of the CAN identifier and promoting
// queued messages as their deadlines approach (§3.4). Deadline misses and
// validity expirations raise local exceptions for application awareness.
type SRTEC struct {
	ch *channelState
}

// SRTEC returns the soft real-time channel for a subject on this node.
func (mw *Middleware) SRTEC(subject binding.Subject) (*SRTEC, error) {
	ch, err := mw.channel(subject, SRT)
	if err != nil {
		return nil, err
	}
	return &SRTEC{ch: ch}, nil
}

// srtEntry tracks one queued SRT event through promotion, expiration and
// completion. It owns the two local-clock timers that drive it, so every
// promotion step re-arms in place and a completed entry leaves no timer
// behind to fire dead.
//
// Entries are pooled per channel, like hrtTx: the controller's Done
// callback and both timers are bound once, when the record is made. A
// record goes back to the free list only once the controller has let go
// of its request — after its Done ran, or after Abort removed it — so a
// frame still on the wire never completes into a reused entry. The
// event's payload bytes live in the entry (ev.Payload slices data), so
// the publisher may reuse its buffer at once.
type srtEntry struct {
	ev         Event
	data       [can.MaxPayload]byte
	ch         *channelState
	handle     can.TxHandle
	deadline   sim.Time  // local clock
	expiration sim.Time  // local clock, 0 = none
	seq        uint64    // node-wide enqueue order, for deterministic shedding
	prio       can.Prio  // priority the queued frame's identifier encodes now
	idx        int       // position in ch.srtActive while queued, -1 once finished
	next       *srtEntry // next record on the channel's free list

	done   func(ok bool, at sim.Time) // sent, bound once
	promo  clock.LocalTimer
	expiry clock.LocalTimer
}

// newSRTEntry takes a record from the channel's free list or makes one.
func (ch *channelState) newSRTEntry() *srtEntry {
	if e := ch.srtFree; e != nil {
		ch.srtFree, e.next = e.next, nil
		return e
	}
	mw := ch.mw
	e := &srtEntry{ch: ch, idx: -1}
	e.done = e.sent
	e.promo.Init(mw.K, mw.node.Clock, e.promote)
	e.expiry.Init(mw.K, mw.node.Clock, e.expire)
	return e
}

// finish marks the entry complete (sent, aborted, expired or shed): it
// leaves the channel's queue and stops its timers.
func (e *srtEntry) finish() {
	if e.idx < 0 {
		return
	}
	active := e.ch.srtActive
	last := len(active) - 1
	active[e.idx] = active[last]
	active[e.idx].idx = e.idx
	active[last] = nil
	e.ch.srtActive = active[:last]
	e.idx = -1
	e.promo.Stop()
	e.expiry.Stop()
}

// release returns a finished entry, whose request the controller no
// longer holds, to the channel's free list.
func (e *srtEntry) release() {
	e.ev = Event{}
	e.handle = can.TxHandle{}
	e.next, e.ch.srtFree = e.ch.srtFree, e
}

// valueAt returns the entry's residual value at local time now under its
// channel's value function (default: 1 before the deadline, 0 after).
func (e *srtEntry) valueAt(now sim.Time) float64 {
	if fn := e.ch.attrs.Value; fn != nil {
		return fn.At(now - e.deadline)
	}
	if now <= e.deadline {
		return 1
	}
	return 0
}

// Announce prepares the channel for publication. SRT channels need no
// reservation; announcing binds the subject and installs the exception
// handler for deadline-miss and expiration notifications.
func (c *SRTEC) Announce(attrs ChannelAttrs, exc ExceptionHandler) error {
	ch := c.ch
	if ch.mw.stopped {
		return errStopped
	}
	if attrs.Payload < 0 || attrs.Payload > can.MaxPayload {
		return fmt.Errorf("%w: SRT payload %d (max %d)", errPayload, attrs.Payload, can.MaxPayload)
	}
	if attrs.Payload == 0 {
		attrs.Payload = can.MaxPayload
	}
	if err := ch.mw.admissionRequest(ch, attrs); err != nil {
		return err
	}
	ch.attrs = attrs
	ch.pubExc = exc
	ch.announced = true
	return nil
}

// CancelPublication withdraws the announcement and aborts all queued
// events (without exceptions: the application asked for it).
func (c *SRTEC) CancelPublication() {
	ch := c.ch
	ch.abortSRT()
	ch.announced = false
	ch.mw.admissionRelease(ch)
}

// abortSRT withdraws every queued SRT event of the channel. A frame on the
// wire right now cannot be aborted; its Done callback still runs and
// returns the entry to the free list then.
func (ch *channelState) abortSRT() {
	for n := len(ch.srtActive); n > 0; n = len(ch.srtActive) {
		e := ch.srtActive[n-1]
		aborted := ch.mw.node.Ctrl.Abort(e.handle)
		e.finish()
		if aborted {
			e.release()
		}
	}
}

// Publish hands an event to the EDF transmission scheduler. The event's
// Deadline attribute (publisher-local clock) drives its priority; the
// Expiration attribute bounds how long it may stay queued (§2.2.2).
func (c *SRTEC) Publish(ev Event) error {
	k := c.ch.mw.K
	if k.Probe() == nil {
		return c.publish(ev)
	}
	w := k.StageStart()
	err := c.publish(ev)
	k.StageEnd(w, sim.ProbeEnqueue, sim.ProbeClassSRT)
	return err
}

func (c *SRTEC) publish(ev Event) error {
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
	now := mw.LocalTime()
	ev.Attrs.Timestamp = now
	if ev.Attrs.Deadline == 0 {
		// No deadline given: treat as "end of horizon" (least urgent).
		ev.Attrs.Deadline = now + mw.bands.SRT.Horizon()
	}
	if mw.MaxQueuedSRT > 0 && mw.srtQueuedTotal() >= mw.MaxQueuedSRT {
		if !mw.shedLowestValue(now) {
			// Nothing sheddable (everything in flight): reject the new
			// event as the implicit lowest-priority citizen.
			ch.raisePub(Exception{
				Kind: ExcLoadShed, Subject: ch.subject,
				At: mw.K.Now(), note: "send queue full, no sheddable entry",
			}.withEvent(ev))
			mw.Obs.Emit(0, obs.StageShed, SRT.Obs(), mw.node.Index,
				uint64(ch.subject), mw.K.Now(), obs.DetailRejectedAtPublish)
			return errSRTQueueFull
		}
	}
	mw.srtSeq++
	ev.publishedAt = mw.K.Now()
	if ev.traceID == 0 {
		ev.traceID = mw.Obs.Begin(SRT.Obs(), mw.node.Index, uint64(ch.subject), ev.publishedAt)
	} else {
		mw.Obs.Adopt(ev.traceID, SRT.Obs(), mw.node.Index, uint64(ch.subject), ev.publishedAt)
	}
	prio := mw.bands.SRT.PrioFor(now, ev.Attrs.Deadline)
	e := ch.newSRTEntry()
	e.ev, e.deadline, e.expiration = ev, ev.Attrs.Deadline, ev.Attrs.Expiration
	e.ev.Payload = e.data[:copy(e.data[:], ev.Payload)]
	e.seq, e.prio = mw.srtSeq, prio
	// Submit copies the payload.
	e.handle = mw.node.Ctrl.Submit(e.ev.frame(can.MakeID(prio, mw.node.Ctrl.Node(), ch.etag), e.ev.Payload),
		can.SubmitOpts{Done: e.done})
	e.idx = len(ch.srtActive)
	ch.srtActive = append(ch.srtActive, e)
	mw.counters.PublishedSRT++
	if mw.Obs.Enabled() {
		mw.Obs.Emit(ev.traceID, obs.StageEnqueued, SRT.Obs(), mw.node.Index,
			uint64(ch.subject), mw.K.Now(), obs.PrioDetail(int(prio)))
	}
	e.armPromotion()
	if e.expiration != 0 {
		e.expiry.Arm(e.expiration)
	}
	return nil
}

// sent is the controller's completion callback for the entry's frame.
// The controller is done with the request, so the entry goes back to the
// free list.
func (e *srtEntry) sent(ok bool, at sim.Time) {
	ch := e.ch
	mw := ch.mw
	e.finish()
	if !ok {
		// The exception's own copy: the entry is reused.
		ch.raisePub(Exception{
			Kind: ExcTxFailure, Subject: ch.subject,
			At: at, note: "SRT transmission abandoned",
		}.withEvent(e.ev))
		mw.Obs.Emit(e.ev.traceID, obs.StageDropped, SRT.Obs(), mw.node.Index,
			uint64(ch.subject), at, obs.DetailTxAbandoned)
	} else if late := mw.node.Clock.Read(at) - e.deadline; late > 0 {
		// Transmitted, but after the transmission deadline: transient
		// overload or a non-preemptable lower-priority frame got in
		// the way. The application is notified for awareness (§2.2.2).
		ch.raisePub(Exception{
			Kind: ExcDeadlineMissed, Subject: ch.subject,
			At: at, late: late,
		}.withEvent(e.ev))
	}
	e.release()
}

// armPromotion schedules the next identifier rewrite for a queued entry:
// the dynamic priority increase with granularity Δt_p of §3.4. Each
// rewrite is counted by the controller (promotion overhead, experiment E7).
func (e *srtEntry) armPromotion() {
	mw := e.ch.mw
	if mw.DisablePromotion || e.prio <= mw.bands.SRT.Min {
		return
	}
	if next := mw.bands.SRT.NextChange(mw.LocalTime(), e.deadline); next != 0 {
		e.promo.Arm(next)
	}
}

// promote is one promotion step: rewrite the queued frame's identifier to
// the priority its remaining laxity maps to, then arm the next step.
func (e *srtEntry) promote() {
	ch := e.ch
	mw := ch.mw
	if e.idx < 0 || mw.stopped {
		return
	}
	p := mw.bands.SRT.PrioFor(mw.LocalTime(), e.deadline)
	if p < e.prio && mw.node.Ctrl.Update(e.handle, can.MakeID(p, mw.node.Ctrl.Node(), ch.etag)) {
		mw.counters.PromotionsApplied++
		if mw.Obs.Enabled() {
			mw.Obs.Emit(e.ev.traceID, obs.StagePromoted, SRT.Obs(), mw.node.Index,
				uint64(ch.subject), mw.K.Now(), obs.Promotion(int(e.prio), int(p)))
		}
	}
	e.prio = p
	e.armPromotion()
}

// expire removes the event at the end of its temporal validity: "the
// event is completely removed from the local send queue" and the
// application is notified (§2.2.2).
func (e *srtEntry) expire() {
	ch := e.ch
	mw := ch.mw
	if e.idx < 0 || mw.stopped {
		return
	}
	if mw.node.Ctrl.Abort(e.handle) {
		e.finish()
		// The exception's own copy: the entry is reused.
		ch.raisePub(Exception{
			Kind: ExcValidityExpired, Subject: ch.subject,
			At: mw.K.Now(), note: "validity expired in send queue",
		}.withEvent(e.ev))
		mw.Obs.Emit(e.ev.traceID, obs.StageExpired, SRT.Obs(), mw.node.Index,
			uint64(ch.subject), mw.K.Now(), 0)
		e.release()
	}
	// Abort failing means the frame is on the wire right now; it will
	// complete and the Done callback handles the bookkeeping.
}

// srtQueuedTotal counts queued SRT events across the node's channels.
func (mw *Middleware) srtQueuedTotal() int {
	n := 0
	for _, ch := range mw.channels {
		if ch != nil && ch.class == SRT {
			n += len(ch.srtActive)
		}
	}
	return n
}

// shedLowestValue removes the queued (not in-flight) SRT entry with the
// least residual value across all of the node's channels, raising a
// LoadShed exception on its channel. Ties break on the earlier deadline,
// then the older enqueue — a total order, so shedding is deterministic
// (map iteration order never decides). It reports whether an entry was
// shed.
func (mw *Middleware) shedLowestValue(now sim.Time) bool {
	// Entries whose Abort failed: the one frame on the wire, or stale
	// handles after a detach. The backing array stays on the stack.
	onWire := make([]*srtEntry, 0, 4)
	for {
		var victim *srtEntry
		worst := 0.0
		better := func(e *srtEntry, v float64) bool {
			if victim == nil || v != worst {
				return victim == nil || v < worst
			}
			if e.deadline != victim.deadline {
				return e.deadline < victim.deadline
			}
			return e.seq < victim.seq
		}
		for _, ch := range mw.channels {
			if ch == nil || ch.class != SRT {
				continue
			}
			for _, e := range ch.srtActive {
				if slices.Contains(onWire, e) {
					continue
				}
				if v := e.valueAt(now); better(e, v) {
					victim, worst = e, v
				}
			}
		}
		if victim == nil {
			return false // nothing abortable left
		}
		if !mw.node.Ctrl.Abort(victim.handle) {
			// On the wire right now: it will complete anyway; fall back to
			// the next-least-valuable entry.
			onWire = append(onWire, victim)
			continue
		}
		victim.finish()
		// The exception's own copy: the entry is reused.
		victim.ch.raisePub(Exception{
			Kind: ExcLoadShed, Subject: victim.ch.subject,
			At: mw.K.Now(), value: worst,
		}.withEvent(victim.ev))
		if mw.Obs.Enabled() {
			mw.Obs.Emit(victim.ev.traceID, obs.StageShed, SRT.Obs(), mw.node.Index,
				uint64(victim.ch.subject), mw.K.Now(),
				obs.Text(fmt.Sprintf("residual value %.2f", worst)))
		}
		victim.release()
		return true
	}
}

// Subscribe installs the handlers and the acceptance filter. SRT events
// are delivered immediately on arrival (no de-jittering: deadlines are a
// transmission property).
func (c *SRTEC) Subscribe(attrs ChannelAttrs, sub SubscribeAttrs, notify NotificationHandler, exc ExceptionHandler) error {
	_, err := c.ch.subscribe(attrs, sub, notify, exc)
	return err
}

// CancelSubscription removes the subscription (strictly local).
func (c *SRTEC) CancelSubscription() { c.ch.unsubscribe() }

// srtReceive delivers an arriving SRT event. The filters read the shared
// frame; the mailbox copies its bytes for the handler.
func (ch *channelState) srtReceive(f *can.Frame, at sim.Time) {
	pub := f.ID.TxNode()
	ev := Event{
		Subject: ch.subject,
		Payload: f.Data,
		traceID: f.Tag,
	}
	if !ch.subAttrs.accepts(pub, ev) {
		return
	}
	mw := ch.mw
	mw.counters.DeliveredSRT++
	di := DeliveryInfo{Publisher: pub, PublishedAt: f.PublishedAt, Origin: f.Origin, ArrivedAt: at, DeliveredAt: at}
	ev = ch.store(ev, di)
	mw.Obs.Delivered(ev.traceID, SRT.Obs(), mw.node.Index,
		uint64(ch.subject), di.PublishedAt, at, 0)
	ch.deliverNotify(ev, di)
}

// GetEvent retrieves the most recently delivered event from the
// middleware's memory area — the paper's getEvent() primitive (§2.2.1).
// The payload is the mailbox's, valid until the channel's next delivery.
func (c *SRTEC) GetEvent() (ev Event, di DeliveryInfo, ok bool) { return c.ch.getEvent() }
