package core

import (
	"fmt"
	"strconv"

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
type srtEntry struct {
	ev         Event
	ch         *channelState
	handle     can.TxHandle
	deadline   sim.Time // local clock
	expiration sim.Time // local clock, 0 = none
	seq        uint64   // node-wide enqueue order, for deterministic shedding
	prio       can.Prio // priority the queued frame's identifier encodes now
	done       bool

	promo  clock.LocalTimer
	expiry clock.LocalTimer
}

// finish marks the entry complete (sent, aborted, expired or shed) and
// releases its bookkeeping and timers.
func (e *srtEntry) finish() {
	e.done = true
	delete(e.ch.srtActive, e)
	e.promo.Stop()
	e.expiry.Stop()
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
		return ErrStopped
	}
	if attrs.Payload < 0 || attrs.Payload > can.MaxPayload {
		return fmt.Errorf("%w: SRT payload %d (max %d)", ErrPayload, attrs.Payload, can.MaxPayload)
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
// wire right now cannot be aborted; its Done callback still runs.
func (ch *channelState) abortSRT() {
	for e := range ch.srtActive {
		ch.mw.node.Ctrl.Abort(e.handle)
		e.finish()
	}
}

// Publish hands an event to the EDF transmission scheduler. The event's
// Deadline attribute (publisher-local clock) drives its priority; the
// Expiration attribute bounds how long it may stay queued (§2.2.2).
func (c *SRTEC) Publish(ev Event) error {
	prof := c.ch.mw.K.Probe()
	if prof == nil {
		return c.publish(ev)
	}
	pt0 := sim.ProbeNow()
	err := c.publish(ev)
	prof.StageNs(sim.ProbeEnqueue, sim.ProbeClassSRT, sim.ProbeNow()-pt0)
	return err
}

func (c *SRTEC) publish(ev Event) error {
	ch := c.ch
	mw := ch.mw
	if !ch.announced {
		return ErrNotAnnounced
	}
	if mw.stopped {
		return ErrStopped
	}
	if len(ev.Payload) > ch.attrs.Payload {
		return fmt.Errorf("%w: %d > %d", ErrPayload, len(ev.Payload), ch.attrs.Payload)
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
			// event as the implicit lowest-priority citizen. The
			// exception gets its own copy, so ev stays on the stack.
			rejected := ev
			ch.raisePub(Exception{
				Kind: ExcLoadShed, Subject: ch.subject, Event: &rejected,
				At: mw.K.Now(), Detail: "send queue full, no sheddable entry",
			})
			mw.Obs.Emit(0, obs.StageShed, SRT.String(), mw.node.Index,
				uint64(ch.subject), mw.K.Now(), "rejected at publish")
			return fmt.Errorf("core: SRT send queue full on node %d", mw.node.Index)
		}
	}
	mw.srtSeq++
	if ev.traceID == 0 {
		ev.traceID = mw.Obs.Begin(SRT.String(), mw.node.Index, uint64(ch.subject), mw.K.Now())
	} else {
		mw.Obs.Adopt(ev.traceID, SRT.String(), mw.node.Index, uint64(ch.subject), mw.K.Now())
	}
	prio := mw.bands.SRT.PrioFor(now, ev.Attrs.Deadline)
	e := &srtEntry{ev: ev, ch: ch, deadline: ev.Attrs.Deadline,
		expiration: ev.Attrs.Expiration, seq: mw.srtSeq, prio: prio}
	frame := can.Frame{
		ID:   can.MakeID(prio, mw.node.Ctrl.Node(), ch.etag),
		Data: ev.Payload, // Submit copies it
		Tag:  ev.traceID,
	}
	e.handle = mw.node.Ctrl.Submit(frame, can.SubmitOpts{Done: e.sent})
	if ch.srtActive == nil {
		ch.srtActive = make(map[*srtEntry]bool)
	}
	ch.srtActive[e] = true
	mw.counters.PublishedSRT++
	if mw.Obs.Enabled() {
		mw.Obs.Emit(ev.traceID, obs.StageEnqueued, SRT.String(), mw.node.Index,
			uint64(ch.subject), mw.K.Now(), prioDetail[prio])
	}
	e.promo.Init(mw.K, mw.node.Clock, e.promote)
	e.armPromotion()
	if e.expiration != 0 {
		e.expiry.Init(mw.K, mw.node.Clock, e.expire)
		e.expiry.Arm(e.expiration)
	}
	return nil
}

// sent is the controller's completion callback for the entry's frame.
func (e *srtEntry) sent(ok bool, at sim.Time) {
	ch := e.ch
	mw := ch.mw
	e.finish()
	if !ok {
		ch.raisePub(Exception{
			Kind: ExcTxFailure, Subject: ch.subject, Event: &e.ev,
			At: at, Detail: "SRT transmission abandoned",
		})
		mw.Obs.Emit(e.ev.traceID, obs.StageDropped, SRT.String(), mw.node.Index,
			uint64(ch.subject), at, "tx_abandoned")
		return
	}
	if mw.node.Clock.Read(at) > e.deadline {
		// Transmitted, but after the transmission deadline: transient
		// overload or a non-preemptable lower-priority frame got in
		// the way. The application is notified for awareness (§2.2.2).
		ch.raisePub(Exception{
			Kind: ExcDeadlineMissed, Subject: ch.subject, Event: &e.ev,
			At: at, Detail: fmt.Sprintf("transmitted %v after deadline",
				mw.node.Clock.Read(at)-e.deadline),
		})
	}
}

// prioDetail is the enqueued record's Detail for each priority.
var prioDetail = func() (d [256]string) {
	for p := range d {
		d[p] = "prio " + strconv.Itoa(p)
	}
	return d
}()

// promotionDetail is the promoted record's Detail ("prio 9->7"), rendered
// once per (from, to) pair. Kernel context, like every caller.
func (mw *Middleware) promotionDetail(from, to can.Prio) string {
	key := uint16(from)<<8 | uint16(to)
	d, ok := mw.promoDetail[key]
	if !ok {
		if mw.promoDetail == nil {
			mw.promoDetail = make(map[uint16]string)
		}
		d = prioDetail[from] + "->" + strconv.Itoa(int(to))
		mw.promoDetail[key] = d
	}
	return d
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
	if e.done || mw.stopped {
		return
	}
	p := mw.bands.SRT.PrioFor(mw.LocalTime(), e.deadline)
	if p < e.prio && mw.node.Ctrl.Update(e.handle, can.MakeID(p, mw.node.Ctrl.Node(), ch.etag)) {
		mw.counters.PromotionsApplied++
		if mw.Obs.Enabled() {
			mw.Obs.Emit(e.ev.traceID, obs.StagePromoted, SRT.String(), mw.node.Index,
				uint64(ch.subject), mw.K.Now(), mw.promotionDetail(e.prio, p))
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
	if e.done || mw.stopped {
		return
	}
	if mw.node.Ctrl.Abort(e.handle) {
		e.finish()
		ch.raisePub(Exception{
			Kind: ExcValidityExpired, Subject: ch.subject, Event: &e.ev,
			At: mw.K.Now(), Detail: "validity expired in send queue",
		})
		mw.Obs.Emit(e.ev.traceID, obs.StageExpired, SRT.String(), mw.node.Index,
			uint64(ch.subject), mw.K.Now(), "")
	}
	// Abort failing means the frame is on the wire right now; it will
	// complete and the Done callback handles the bookkeeping.
}

// srtQueuedTotal counts queued SRT events across the node's channels.
func (mw *Middleware) srtQueuedTotal() int {
	n := 0
	for _, ch := range mw.channels {
		if ch.class == SRT {
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
	excluded := make(map[*srtEntry]bool)
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
			if ch.class != SRT {
				continue
			}
			for e := range ch.srtActive {
				if excluded[e] {
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
			excluded[victim] = true
			continue
		}
		victim.finish()
		victim.ch.raisePub(Exception{
			Kind: ExcLoadShed, Subject: victim.ch.subject, Event: &victim.ev,
			At: mw.K.Now(), Detail: fmt.Sprintf("shed with residual value %.2f", worst),
		})
		if mw.Obs.Enabled() {
			mw.Obs.Emit(victim.ev.traceID, obs.StageShed, SRT.String(), mw.node.Index,
				uint64(victim.ch.subject), mw.K.Now(),
				fmt.Sprintf("residual value %.2f", worst))
		}
		return true
	}
}

// Subscribe installs the handlers and the acceptance filter. SRT events
// are delivered immediately on arrival (no de-jittering: deadlines are a
// transmission property).
func (c *SRTEC) Subscribe(attrs ChannelAttrs, sub SubscribeAttrs, notify NotificationHandler, exc ExceptionHandler) error {
	ch := c.ch
	if ch.mw.stopped {
		return ErrStopped
	}
	if !ch.announced {
		ch.attrs = attrs
	}
	ch.subAttrs = sub
	ch.notify = notify
	ch.subExc = exc
	if !ch.subscribed {
		ch.subscribed = true
		ch.mw.node.Ctrl.AddFilter(ch.etag)
	}
	return nil
}

// CancelSubscription removes the subscription (strictly local).
func (c *SRTEC) CancelSubscription() {
	ch := c.ch
	ch.subscribed = false
	ch.notify = nil
	ch.mw.node.Ctrl.RemoveFilter(ch.etag)
}

// srtReceive delivers an arriving SRT event.
func (ch *channelState) srtReceive(f can.Frame, at sim.Time) {
	pub := f.ID.TxNode()
	ev := Event{
		Subject: ch.subject,
		Payload: append([]byte(nil), f.Data...),
		traceID: f.Tag,
	}
	if !ch.subAttrs.accepts(pub, ev) {
		return
	}
	mw := ch.mw
	mw.counters.DeliveredSRT++
	di := DeliveryInfo{Publisher: pub, ArrivedAt: at, DeliveredAt: at}
	if pubAt, ok := mw.Obs.PublishKernelTime(ev.traceID); ok {
		di.PublishedAt = pubAt
	}
	ch.store(ev, di)
	mw.Obs.Delivered(ev.traceID, SRT.String(), mw.node.Index,
		uint64(ch.subject), at, "")
	ch.deliverNotify(ev, di)
}

// GetEvent retrieves the most recently delivered event from the
// middleware's memory area — the paper's getEvent() primitive (§2.2.1).
func (c *SRTEC) GetEvent() (ev Event, di DeliveryInfo, ok bool) { return c.ch.getEvent() }
